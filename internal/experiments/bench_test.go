package experiments

// One benchmark per artifact of the evaluation (see DESIGN.md §5):
//
//	BenchmarkFigRandomEnvironment   — E1, "R in random environments"
//	BenchmarkFigOverlappingGroups   — E2, Figure 8
//	BenchmarkFigClientServer        — E3, Figure 9
//	BenchmarkTableReductionVsFDAS   — E4, headline reduction table
//	BenchmarkMinGlobalAgreement     — E6, Corollary 4.5 agreement table
//	BenchmarkDominoEffect           — E7, rollback depth with/without coordination
//	BenchmarkAblationVariants       — E8, BHMR family ablation
//	BenchmarkGuarantees             — E11, guarantee spectrum and useless checkpoints
//
// E5 (BenchmarkTablePiggybackSize) measures the protocols themselves and
// lives in internal/core; E6's oracle also has a layer row,
// BenchmarkMinGlobalCheckpoint in internal/rgraph. These run the same
// harness as cmd/rdtexperiments (reduced grid) and surface the headline
// values as custom metrics, so `go test -bench` regenerates every number
// of EXPERIMENTS.md in miniature.

import (
	"testing"

	"github.com/rdt-go/rdt/internal/core"
)

// benchFigure runs one environment figure and reports the mid-sweep R of
// the paper's protocol and of FDAS as custom metrics.
func benchFigure(b *testing.B, env string) {
	b.Helper()
	cfg := Quick()
	mid := len(cfg.BasicMeans) - 1
	var bhmr, fdas float64
	for i := 0; i < b.N; i++ {
		series, err := FigureR(cfg, env)
		if err != nil {
			b.Fatal(err)
		}
		bhmr = series.Lines[core.KindBHMR.String()][mid]
		fdas = series.Lines[core.KindFDAS.String()][mid]
	}
	b.ReportMetric(bhmr, "R(bhmr)")
	b.ReportMetric(fdas, "R(fdas)")
}

func BenchmarkFigRandomEnvironment(b *testing.B) { benchFigure(b, "random") }
func BenchmarkFigOverlappingGroups(b *testing.B) { benchFigure(b, "groups") }
func BenchmarkFigClientServer(b *testing.B)      { benchFigure(b, "client-server") }

func BenchmarkTableReductionVsFDAS(b *testing.B) {
	cfg := Quick()
	for i := 0; i < b.N; i++ {
		if _, err := ReductionVsFDAS(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDominoEffect(b *testing.B) {
	cfg := Quick()
	for i := 0; i < b.N; i++ {
		if _, err := Domino(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationVariants(b *testing.B) {
	cfg := Quick()
	for i := 0; i < b.N; i++ {
		if _, err := Ablation(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinGlobalAgreement(b *testing.B) {
	cfg := Quick()
	for i := 0; i < b.N; i++ {
		if _, err := MinGlobalAgreement(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGuarantees(b *testing.B) {
	cfg := Quick()
	for i := 0; i < b.N; i++ {
		if _, err := Guarantees(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
