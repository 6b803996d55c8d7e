package rgraph

import (
	"testing"

	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/sim"
	"github.com/rdt-go/rdt/internal/workload"
)

// holdToPairOracle builds p's graph and TDVs and holds the word scan to
// the pair loop. It reports whether p violates RDT and whether its rows
// span more than one word.
func holdToPairOracle(t *testing.T, label string, p *model.Pattern) (violating, multiword bool) {
	t.Helper()
	g, err := Build(p)
	if err != nil {
		t.Fatalf("%s: build: %v", label, err)
	}
	tdvs, err := ComputeTDVs(p)
	if err != nil {
		t.Fatalf("%s: tdvs: %v", label, err)
	}
	if err := checkRDTOracle(g, tdvs); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return !checkRDT(g, tdvs, 1).RDT, g.NumNodes() > 64
}

// TestCheckRDTMatchesPairOracle: 1 000 random patterns of 2 to 8
// processes, every tenth long enough for rows of several words, and 80
// short simulations under no coordination, BCS, BHMR and FDAS.
func TestCheckRDTMatchesPairOracle(t *testing.T) {
	patterns, violating, multiword := 0, 0, 0
	count := func(v, m bool) {
		patterns++
		if v {
			violating++
		}
		if m {
			multiword++
		}
	}
	for seed := int64(1); seed <= 1000; seed++ {
		events := 40 + int(seed%160)
		if seed%10 == 0 {
			events = 1200
		}
		count(holdToPairOracle(t, "random", randomPattern(t, seed, 2+int(seed%7), events)))
	}
	for seed := int64(1); seed <= 20; seed++ {
		for _, kind := range []core.Kind{core.KindNone, core.KindBCS, core.KindBHMR, core.KindFDAS} {
			cfg := sim.DefaultConfig(kind, seed)
			cfg.N = 3 + int(seed%4)
			cfg.Duration = 40
			cfg.BasicMean = 6
			res, err := sim.Run(cfg, &workload.Random{MeanGap: 1})
			if err != nil {
				t.Fatalf("sim %v seed %d: %v", kind, seed, err)
			}
			count(holdToPairOracle(t, kind.String(), res.Pattern))
		}
	}
	if violating == 0 || violating == patterns || multiword < 100 {
		t.Fatalf("degenerate corpus: %d patterns, %d violating, %d with multi-word rows", patterns, violating, multiword)
	}
	t.Logf("%d patterns, %d violating, %d with multi-word rows", patterns, violating, multiword)
}

// TestCheckRDTMatchesPairOracleOnGridPatterns: the uncoordinated runs of
// the Guarantees table, whose zigzag cycles put bits on the diagonal and
// violations on every row.
func TestCheckRDTMatchesPairOracleOnGridPatterns(t *testing.T) {
	w, err := workload.ByName("random")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{17, 817} {
		cfg := sim.DefaultConfig(core.KindNone, seed)
		cfg.Duration = 300
		cfg.BasicMean = 8
		res, err := sim.Run(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		if violating, _ := holdToPairOracle(t, "grid", res.Pattern); !violating {
			t.Fatalf("seed %d: the uncoordinated grid run satisfies RDT", seed)
		}
	}
}
