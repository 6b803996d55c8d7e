package rgraph_test

// Benchmarks of the offline analyses (the incremental checker's are in
// scaling_test.go).

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/rgraph"
	"github.com/rdt-go/rdt/internal/sim"
	"github.com/rdt-go/rdt/internal/workload"
)

// simulatedPattern runs BHMR under random traffic and returns the
// annotated pattern.
func simulatedPattern(b testing.TB, seed int64, n int, duration float64) *model.Pattern {
	b.Helper()
	cfg := sim.DefaultConfig(core.KindBHMR, seed)
	cfg.N = n
	cfg.Duration = duration
	res, err := sim.Run(cfg, &workload.Random{MeanGap: 1})
	if err != nil {
		b.Fatal(err)
	}
	return res.Pattern
}

// minGlobalFixture is the annotated BHMR trace of E6.
func minGlobalFixture(b *testing.B) *model.Pattern {
	b.Helper()
	return simulatedPattern(b, 31, 6, 150)
}

// BenchmarkMinGlobalCheckpoint is E6: Corollary 4.5 on-the-fly against
// the brute-force computation, for one checkpoint and swept over all.
func BenchmarkMinGlobalCheckpoint(b *testing.B) {
	p := minGlobalFixture(b)
	target := model.CkptID{Proc: 2, Index: len(p.Checkpoints[2]) / 2}
	ck, err := p.Checkpoint(target)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("on-the-fly", func(b *testing.B) {
		// Corollary 4.5: the protocol already computed the answer; reading
		// it is a vector copy.
		for i := 0; i < b.N; i++ {
			g := make(model.GlobalCheckpoint, len(ck.TDV))
			copy(g, ck.TDV)
		}
	})
	b.Run("brute-force", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rgraph.MinConsistentContaining(p, target); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sweep", func(b *testing.B) {
		// Every checkpoint of the fixture, one fixpoint per process, as
		// E6 runs it; reported per checkpoint to compare with the rows
		// above.
		for i := 0; i < b.N; i++ {
			err := rgraph.MinConsistentSweep(p, func(c model.CkptID, min model.GlobalCheckpoint) error {
				if min == nil {
					return fmt.Errorf("%v has no minimum", c)
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*p.NumCheckpoints()), "ns/ckpt")
	})
}

func BenchmarkRGraphBuild(b *testing.B) {
	p := minGlobalFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rgraph.Build(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComputeTDVs(b *testing.B) {
	p := minGlobalFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rgraph.ComputeTDVs(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckRDT(b *testing.B) {
	p := minGlobalFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rgraph.CheckRDT(p, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewChains builds the chain closures of the Guarantees table's
// runs: 8 processes under random traffic at a fifth of the paper horizon,
// about 2.4 k messages. The uncoordinated run has zigzag cycles; BHMR's
// has none.
func BenchmarkNewChains(b *testing.B) {
	w, err := workload.ByName("random")
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range []core.Kind{core.KindNone, core.KindBHMR} {
		cfg := sim.DefaultConfig(kind, 17)
		cfg.Duration = 300
		cfg.BasicMean = 8
		res, err := sim.Run(cfg, w)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%v/msgs=%d", kind, len(res.Pattern.Messages)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := rgraph.NewChains(res.Pattern); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRGraphScaling measures the offline analyses as trace size
// grows (nodes here are checkpoints of the R-graph), up to near 2^16
// checkpoints, the daemon's session cap.
func BenchmarkRGraphScaling(b *testing.B) {
	for _, duration := range []float64{100, 400, 1600, 12800} {
		p := simulatedPattern(b, 47, 8, duration)
		b.Run(fmt.Sprintf("build/ckpts=%d", p.NumCheckpoints()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := rgraph.Build(p); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("checkRDT/ckpts=%d", p.NumCheckpoints()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := rgraph.CheckRDT(p, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCheckRDTHeapIsLinear pins the batch check's memory to O(C·n)
// without a clock: on BHMR runs of 8 processes, CheckRDT's heap bytes per
// checkpoint at about 2^15 checkpoints stay within 1.5x of those at about
// 2^12. A C x C closure grows eightfold per checkpoint over that span.
func TestCheckRDTHeapIsLinear(t *testing.T) {
	perCheckpoint := func(duration float64) float64 {
		p := simulatedPattern(t, 47, 8, duration)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := rgraph.CheckRDT(p, 1); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		b := float64(after.TotalAlloc-before.TotalAlloc) / float64(p.NumCheckpoints())
		t.Logf("%d checkpoints: %.0f B per checkpoint", p.NumCheckpoints(), b)
		return b
	}
	small, large := perCheckpoint(980), perCheckpoint(7800)
	if large > 1.5*small {
		t.Errorf("CheckRDT allocates %.0f B per checkpoint at ~2^15 checkpoints, %.0f B at ~2^12: not linear", large, small)
	}
}
