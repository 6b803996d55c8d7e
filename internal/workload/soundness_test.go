package workload_test

// The soundness suite: every protocol that claims the RDT property must
// produce, in every communication environment, traces the offline oracle
// certifies — no untrackable R-path, dependency vectors identical to the
// offline ones, Lemma 4.1 satisfied, and (Corollary 4.5) each checkpoint's
// recorded vector equal to the brute-force minimum consistent global
// checkpoint containing it. The uncoordinated baseline must, in contrast,
// exhibit RDT violations.

import (
	"fmt"
	"testing"

	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/rgraph"
	"github.com/rdt-go/rdt/internal/sim"
	"github.com/rdt-go/rdt/internal/workload"
)

func soundnessConfig(k core.Kind, seed int64) sim.Config {
	cfg := sim.DefaultConfig(k, seed)
	cfg.N = 5
	cfg.Duration = 80
	cfg.BasicMean = 6
	return cfg
}

func mustRun(t *testing.T, cfg sim.Config, name string) *sim.Result {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	res, err := sim.Run(cfg, w)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestRDTProtocolsAreSoundInAllEnvironments(t *testing.T) {
	for _, kind := range core.RDTKinds() {
		for _, env := range workload.Names() {
			for seed := int64(1); seed <= 2; seed++ {
				name := fmt.Sprintf("%v/%s/seed%d", kind, env, seed)
				t.Run(name, func(t *testing.T) {
					checkSound(t, mustRun(t, soundnessConfig(kind, seed), env))
				})
			}
		}
	}
}

// TestBHMRFamilyIsSoundOnWideRows runs the BHMR family where a row of the
// causal matrix spans two and three words (n = 65 and 130), which neither
// the suite above (n = 5) nor the experiment grid (n = 8) reaches: the
// word operations of a delivery there cross word boundaries.
func TestBHMRFamilyIsSoundOnWideRows(t *testing.T) {
	for _, kind := range []core.Kind{core.KindBHMR, core.KindBHMRNoSimple, core.KindBHMRCausalOnly} {
		for _, n := range []int{65, 130} {
			t.Run(fmt.Sprintf("%v/n=%d", kind, n), func(t *testing.T) {
				cfg := soundnessConfig(kind, 1)
				cfg.N, cfg.Duration = n, 30
				checkSound(t, mustRun(t, cfg, "random"))
			})
		}
	}
}

// checkSound requires a run's pattern to be RDT and its recorded
// dependency vectors to equal the offline ones.
func checkSound(t *testing.T, res *sim.Result) {
	t.Helper()
	rep, err := rgraph.CheckRDT(res.Pattern, 4)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if !rep.RDT {
		t.Fatalf("RDT violated: %v", rep.Violations)
	}
	if err := rgraph.VerifyRecordedTDVs(res.Pattern); err != nil {
		t.Fatalf("recorded TDVs wrong: %v", err)
	}
}

func TestLemma41HoldsForBHMRFamily(t *testing.T) {
	for _, kind := range []core.Kind{core.KindBHMR, core.KindBHMRNoSimple, core.KindBHMRCausalOnly} {
		for _, env := range []string{"random", "client-server"} {
			t.Run(fmt.Sprintf("%v/%s", kind, env), func(t *testing.T) {
				res := mustRun(t, soundnessConfig(kind, 3), env)
				if err := rgraph.CheckLemma41(res.Pattern); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestCorollary45 validates the headline extra feature of the protocol:
// the vector recorded with every checkpoint of a BHMR run is exactly the
// minimum consistent global checkpoint containing that checkpoint.
func TestCorollary45(t *testing.T) {
	for _, env := range workload.Names() {
		t.Run(env, func(t *testing.T) {
			res := mustRun(t, soundnessConfig(core.KindBHMR, 5), env)
			p := res.Pattern
			checked := 0
			for i := 0; i < p.N; i++ {
				for x := range p.Checkpoints[i] {
					ck := &p.Checkpoints[i][x]
					if ck.TDV == nil {
						continue
					}
					id := ck.ID()
					min, err := rgraph.MinConsistentContaining(p, id)
					if err != nil {
						t.Fatalf("min containing %v: %v", id, err)
					}
					if !min.Equal(model.GlobalCheckpoint(ck.TDV)) {
						t.Fatalf("checkpoint %v: TDV %v != min consistent global %v", id, ck.TDV, min)
					}
					checked++
				}
			}
			if checked == 0 {
				t.Fatal("no annotated checkpoints to check")
			}
		})
	}
}

// TestMinimumIsConsistentForAllRDTProtocols: under any RDT protocol the
// recorded vector must at least be *a* consistent global checkpoint
// containing the checkpoint (Corollary 4.5 holds for the whole family since
// they all track dependencies the same way).
func TestMinimumIsConsistentForAllRDTProtocols(t *testing.T) {
	for _, kind := range core.RDTKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			res := mustRun(t, soundnessConfig(kind, 7), "random")
			p := res.Pattern
			for i := 0; i < p.N; i++ {
				for x := range p.Checkpoints[i] {
					ck := &p.Checkpoints[i][x]
					if ck.TDV == nil {
						continue
					}
					ok, err := rgraph.IsConsistent(p, model.GlobalCheckpoint(ck.TDV))
					if err != nil {
						t.Fatalf("consistency of %v: %v", ck.ID(), err)
					}
					if !ok {
						t.Fatalf("TDV of %v is not a consistent global checkpoint", ck.ID())
					}
					if ck.TDV[i] != x {
						t.Fatalf("TDV of %v has self entry %d", ck.ID(), ck.TDV[i])
					}
				}
			}
		})
	}
}

func TestUncoordinatedCheckpointingViolatesRDT(t *testing.T) {
	violated := false
	for seed := int64(1); seed <= 10 && !violated; seed++ {
		res := mustRun(t, soundnessConfig(core.KindNone, seed), "random")
		rep, err := rgraph.CheckRDT(res.Pattern, 1)
		if err != nil {
			t.Fatalf("check: %v", err)
		}
		if !rep.RDT {
			violated = true
		}
	}
	if !violated {
		t.Error("uncoordinated runs never violated RDT across 10 seeds; the oracle or the workloads are too tame")
	}
}

// TestPredicateHierarchyLive verifies, on every arrival of a live BHMR
// simulation, the implications the comparison of Section 5.2 rests on:
// C1 ∨ C2 ⇒ C_FDAS ⇒ (C_FDI ∧ C_NRAS) and C_NRAS ⇒ C_CBR, plus C2 ⇒ C2'.
func TestPredicateHierarchyLive(t *testing.T) {
	type evaluator interface {
		Evaluate(core.Piggyback) core.Predicates
	}
	for _, env := range workload.Names() {
		t.Run(env, func(t *testing.T) {
			arrivals := 0
			cfg := soundnessConfig(core.KindBHMR, 11)
			cfg.Monitor = func(inst core.Instance, _ int, pb core.Piggyback) {
				ev, ok := inst.(evaluator)
				if !ok {
					t.Fatal("BHMR instance does not expose Evaluate")
				}
				pred := ev.Evaluate(pb)
				arrivals++
				if (pred.C1 || pred.C2) && !pred.FDAS {
					t.Errorf("C1∨C2 held without C_FDAS: %+v", pred)
				}
				if pred.C2 && !pred.C2Prime {
					t.Errorf("C2 held without C2': %+v", pred)
				}
				if pred.FDAS && (!pred.FDI || !pred.NRAS) {
					t.Errorf("C_FDAS held without C_FDI/C_NRAS: %+v", pred)
				}
				if pred.NRAS && !pred.CBR {
					t.Errorf("C_NRAS held without C_CBR: %+v", pred)
				}
			}
			mustRun(t, cfg, env)
			if arrivals == 0 {
				t.Fatal("monitor never ran")
			}
		})
	}
}

// TestForcedCheckpointOrdering verifies the evaluation's headline on
// averages over seeds: the paper's protocol forces fewer checkpoints than
// FDAS, and FDAS fewer than the cruder protocols.
func TestForcedCheckpointOrdering(t *testing.T) {
	for _, env := range []string{"random", "groups", "client-server"} {
		t.Run(env, func(t *testing.T) {
			mean := func(kind core.Kind) float64 {
				total := 0
				for seed := int64(1); seed <= 4; seed++ {
					cfg := soundnessConfig(kind, seed)
					cfg.Duration = 150
					res := mustRun(t, cfg, env)
					total += res.Stats.Forced
				}
				return float64(total) / 4
			}
			bhmr := mean(core.KindBHMR)
			fdas := mean(core.KindFDAS)
			nras := mean(core.KindNRAS)
			if bhmr > fdas {
				t.Errorf("BHMR forced %.1f > FDAS %.1f", bhmr, fdas)
			}
			if fdas > nras {
				t.Errorf("FDAS forced %.1f > NRAS %.1f", fdas, nras)
			}
		})
	}
}

// TestBCSIsZCycleFreeButNotRDT pins down the guarantee spectrum: the
// index-based BCS protocol leaves no useless checkpoint (every checkpoint
// can join a consistent global checkpoint) in any environment, yet its
// runs are not generally RDT — the reason the paper's stronger tracking
// exists.
func TestBCSIsZCycleFreeButNotRDT(t *testing.T) {
	violatedRDT := false
	for _, env := range []string{"random", "groups", "client-server"} {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := soundnessConfig(core.KindBCS, seed)
			cfg.Duration = 50 // keep the O(M^2) chain closure affordable
			res := mustRun(t, cfg, env)
			chains, err := rgraph.NewChains(res.Pattern)
			if err != nil {
				t.Fatalf("chains: %v", err)
			}
			p := res.Pattern
			for i := 0; i < p.N; i++ {
				for x := range p.Checkpoints[i] {
					id := model.CkptID{Proc: model.ProcID(i), Index: x}
					if chains.ZigzagNX(id, id) {
						t.Fatalf("%s/seed%d: BCS produced useless checkpoint %v", env, seed, id)
					}
				}
			}
			rep, err := rgraph.CheckRDT(p, 1)
			if err != nil {
				t.Fatalf("check: %v", err)
			}
			if !rep.RDT {
				violatedRDT = true
			}
		}
	}
	if !violatedRDT {
		t.Error("BCS never violated RDT across the grid; the guarantee separation is not exercised")
	}
}

// TestNoneProducesUselessCheckpoints is the complement: without any
// coordination, useless checkpoints (Z-cycles) do appear.
func TestNoneProducesUselessCheckpoints(t *testing.T) {
	found := false
	for seed := int64(1); seed <= 8 && !found; seed++ {
		cfg := soundnessConfig(core.KindNone, seed)
		cfg.Duration = 50
		res := mustRun(t, cfg, "random")
		chains, err := rgraph.NewChains(res.Pattern)
		if err != nil {
			t.Fatalf("chains: %v", err)
		}
		p := res.Pattern
		for i := 0; i < p.N && !found; i++ {
			for x := range p.Checkpoints[i] {
				if id := (model.CkptID{Proc: model.ProcID(i), Index: x}); chains.ZigzagNX(id, id) {
					found = true
					break
				}
			}
		}
	}
	if !found {
		t.Error("no uncoordinated run produced a useless checkpoint across 8 seeds")
	}
}
