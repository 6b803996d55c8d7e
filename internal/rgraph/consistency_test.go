package rgraph

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/sim"
	"github.com/rdt-go/rdt/internal/workload"
)

// checkConsistencyOracles holds the fast consistency answers of a pattern
// to their definitions: Graph.Useless to the zigzag cycle ZigzagNX(c, c),
// and MinConsistentSweep and MinConsistentContaining to the round-robin
// fixpoint, for every checkpoint and for that many pinned pairs drawn
// from rng. A checkpoint must also be useless exactly when it has no
// minimum. The batch RDT check is held to its pair loop on the way, and
// the witnesses of its violations to the pair-adjacency search. It
// returns the number of useless checkpoints.
func checkConsistencyOracles(t testing.TB, p *model.Pattern, rng *rand.Rand, pairs int) int {
	t.Helper()
	g, err := Build(p)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	tdvs, err := ComputeTDVs(p)
	if err != nil {
		t.Fatalf("tdvs: %v", err)
	}
	if err := checkRDTOracle(g, tdvs); err != nil {
		t.Fatalf("%v\n%s", err, p.ASCII())
	}
	if err := checkWitnessOracle(p, checkRDT(g, tdvs, 64)); err != nil {
		t.Fatalf("%v\n%s", err, p.ASCII())
	}
	chains, err := NewChains(p)
	if err != nil {
		t.Fatalf("chains: %v", err)
	}
	useless := 0
	var ids []model.CkptID
	err = MinConsistentSweep(p, func(c model.CkptID, min model.GlobalCheckpoint) error {
		ids = append(ids, c)
		want, wantErr := minConsistentOracle(p, c)
		if (min != nil) != (wantErr == nil) || min != nil && !min.Equal(want) {
			t.Fatalf("sweep at %v: %v, oracle %v (err %v)\n%s", c, min, want, wantErr, p.ASCII())
		}
		got, err := MinConsistentContaining(p, c)
		sameMin(t, []model.CkptID{c}, got, err, want, wantErr)
		u := g.Useless(c)
		if u != chains.ZigzagNX(c, c) {
			t.Fatalf("Graph.Useless(%v) = %v, ZigzagNX says %v\n%s", c, u, !u, p.ASCII())
		}
		if u != (min == nil) {
			t.Fatalf("%v: useless = %v but minimum %v\n%s", c, u, min, p.ASCII())
		}
		if u {
			useless++
		}
		return nil
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if len(ids) != p.NumCheckpoints() {
		t.Fatalf("sweep visited %d checkpoints, pattern has %d", len(ids), p.NumCheckpoints())
	}
	for k := 0; k < pairs; k++ {
		set := []model.CkptID{ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]}
		got, err := MinConsistentContaining(p, set...)
		want, wantErr := minConsistentOracle(p, set...)
		sameMin(t, set, got, err, want, wantErr)
	}
	return useless
}

// sameMin requires the same minimum from both fixpoints, or errors that
// both wrap ErrNoConsistentGlobal.
func sameMin(t testing.TB, set []model.CkptID, got model.GlobalCheckpoint, err error, want model.GlobalCheckpoint, wantErr error) {
	t.Helper()
	switch {
	case wantErr != nil:
		if !errors.Is(err, ErrNoConsistentGlobal) || !errors.Is(wantErr, ErrNoConsistentGlobal) {
			t.Fatalf("MinConsistentContaining%v: %v, %v; oracle fails with %v", set, got, err, wantErr)
		}
	case err != nil || !got.Equal(want):
		t.Fatalf("MinConsistentContaining%v: %v (err %v), oracle %v", set, got, err, want)
	}
}

// TestConsistencyOraclesOnSimulatedPatterns runs checkConsistencyOracles
// on 1 008 short simulations: every environment of the paper under no
// coordination (which supplies the useless checkpoints), BCS, BHMR and
// FDAS, with 2 to 8 processes.
func TestConsistencyOraclesOnSimulatedPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	kinds := []core.Kind{core.KindNone, core.KindBCS, core.KindBHMR, core.KindFDAS}
	patterns, ckpts, useless := 0, 0, map[core.Kind]int{}
	for _, env := range []string{"random", "groups", "client-server"} {
		for _, kind := range kinds {
			for seed := int64(0); seed < 84; seed++ {
				w, err := workload.ByName(env)
				if err != nil {
					t.Fatal(err)
				}
				cfg := sim.DefaultConfig(kind, seed)
				cfg.N = 2 + int(seed%7)
				cfg.Duration = 10
				cfg.BasicMean = 2
				res, err := sim.Run(cfg, w)
				if err != nil {
					t.Fatalf("%s/%v/seed %d: %v", env, kind, seed, err)
				}
				useless[kind] += checkConsistencyOracles(t, res.Pattern, rng, 8)
				patterns++
				ckpts += res.Pattern.NumCheckpoints()
			}
		}
	}
	t.Logf("%d patterns, %d checkpoints, useless by protocol: %v", patterns, ckpts, useless)
	if useless[core.KindNone] == 0 {
		t.Error("no uncoordinated run has a useless checkpoint: the test lost its point")
	}
	for _, kind := range kinds[1:] {
		if useless[kind] != 0 {
			t.Errorf("%v left %d useless checkpoints", kind, useless[kind])
		}
	}
}
