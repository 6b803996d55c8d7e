package rgraph

// Property-based cross-validation on randomly generated checkpoint and
// communication patterns: the package contains several independent
// implementations of the same theory (R-graph reachability vs message-
// chain closures; TDV replay vs causal-chain search; orphan fixpoints vs
// zigzag extensibility; the TDV-based RDT checker vs the chain-doubling
// characterization), and on every random pattern they must agree exactly.

import (
	"math/rand"
	"testing"

	"github.com/rdt-go/rdt/internal/model"
)

// randomPattern builds an arbitrary valid pattern: a random interleaving
// of sends, deliveries and checkpoints over n processes.
func randomPattern(t *testing.T, seed int64, n, events int) *model.Pattern {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := model.NewBuilder(n)
	var inflight []int
	for e := 0; e < events; e++ {
		switch r := rng.Float64(); {
		case r < 0.45:
			from := model.ProcID(rng.Intn(n))
			to := model.ProcID(rng.Intn(n - 1))
			if to >= from {
				to++
			}
			inflight = append(inflight, b.Send(from, to))
		case r < 0.80 && len(inflight) > 0:
			pick := rng.Intn(len(inflight))
			if err := b.Deliver(inflight[pick]); err != nil {
				t.Fatalf("deliver: %v", err)
			}
			inflight = append(inflight[:pick], inflight[pick+1:]...)
		default:
			b.Checkpoint(model.ProcID(rng.Intn(n)), model.KindBasic, nil)
		}
	}
	for _, h := range inflight {
		if err := b.Deliver(h); err != nil {
			t.Fatalf("drain: %v", err)
		}
	}
	p, err := b.Finalize()
	if err != nil {
		t.Fatalf("finalize: %v", err)
	}
	return p
}

type fixture struct {
	p      *model.Pattern
	g      *Graph
	chains *Chains
	tdvs   *TDVTable
}

func buildFixture(t *testing.T, seed int64) fixture {
	t.Helper()
	p := randomPattern(t, seed, 3+int(seed%3), 60+int(seed%40))
	g, err := Build(p)
	if err != nil {
		t.Fatalf("seed %d: build: %v", seed, err)
	}
	chains, err := NewChains(p)
	if err != nil {
		t.Fatalf("seed %d: chains: %v", seed, err)
	}
	tdvs, err := ComputeTDVs(p)
	if err != nil {
		t.Fatalf("seed %d: tdvs: %v", seed, err)
	}
	return fixture{p: p, g: g, chains: chains, tdvs: tdvs}
}

const propertySeeds = 30

// TestPropertyRPathChainEquivalence: an R-path a -> b exists iff b follows
// a on the same process, or some chain links a dominating pair
// (a.Proc, x” >= a.Index) -> (b.Proc, y” <= b.Index).
func TestPropertyRPathChainEquivalence(t *testing.T) {
	for seed := int64(1); seed <= propertySeeds; seed++ {
		f := buildFixture(t, seed)
		forEachPair(f.p, func(a, b model.CkptID) {
			want := a.Proc == b.Proc && a.Index < b.Index
			if !want {
			dominating:
				for x := a.Index; x <= f.p.LastIndex(a.Proc); x++ {
					for y := 1; y <= b.Index; y++ {
						if f.chains.HasChain(model.CkptID{Proc: a.Proc, Index: x}, model.CkptID{Proc: b.Proc, Index: y}) {
							want = true
							break dominating
						}
					}
				}
			}
			if got := f.g.HasRPath(a, b); got != want {
				t.Fatalf("seed %d: HasRPath(%v,%v) = %v, chain analysis says %v", seed, a, b, got, want)
			}
		})
	}
}

// TestPropertyTrackableEqualsCausallyDoubled: the TDV replay and the
// causal-chain closure implement the same relation.
func TestPropertyTrackableEqualsCausallyDoubled(t *testing.T) {
	for seed := int64(1); seed <= propertySeeds; seed++ {
		f := buildFixture(t, seed)
		forEachPair(f.p, func(a, b model.CkptID) {
			if a.Proc == b.Proc || a.Index == 0 {
				return
			}
			tdv := f.tdvs.Trackable(a, b)
			doubled := f.chains.CausallyDoubled(a, b)
			if tdv != doubled {
				t.Fatalf("seed %d: Trackable(%v,%v) = %v but CausallyDoubled = %v", seed, a, b, tdv, doubled)
			}
		})
	}
}

// TestPropertyRDTCheckersAgree: the reachability/TDV checker and the
// chain-doubling characterization give the same verdict.
func TestPropertyRDTCheckersAgree(t *testing.T) {
	sawViolation := false
	for seed := int64(1); seed <= propertySeeds; seed++ {
		f := buildFixture(t, seed)
		byGraph := checkRDT(f.g, f.tdvs, 1)
		byChains := f.chains.CheckRDTByChains(1)
		if byGraph.RDT != byChains.RDT {
			t.Fatalf("seed %d: graph checker says RDT=%v, chain checker says %v",
				seed, byGraph.RDT, byChains.RDT)
		}
		if !byGraph.RDT {
			sawViolation = true
		}
	}
	if !sawViolation {
		t.Error("no random pattern violated RDT; properties are vacuous")
	}
}

// TestPropertyUselessIffUnpinnable: a checkpoint lies on a zigzag cycle
// iff no consistent global checkpoint contains it.
func TestPropertyUselessIffUnpinnable(t *testing.T) {
	sawUseless := false
	for seed := int64(1); seed <= propertySeeds; seed++ {
		f := buildFixture(t, seed)
		for i := 0; i < f.p.N; i++ {
			for x := range f.p.Checkpoints[i] {
				id := model.CkptID{Proc: model.ProcID(i), Index: x}
				useless := f.chains.ZigzagNX(id, id)
				_, err := MinConsistentContaining(f.p, id)
				if useless != (err != nil) {
					t.Fatalf("seed %d: %v useless=%v but min-pin err=%v", seed, id, useless, err)
				}
				if useless {
					sawUseless = true
					if !f.g.HasRPath(id, id) {
						t.Fatalf("seed %d: %v useless but not on an R-graph cycle", seed, id)
					}
				}
			}
		}
	}
	if !sawUseless {
		t.Error("no random pattern produced a useless checkpoint; generator too tame")
	}
}

// TestPropertyMinMaxAreTightAndConsistent: when a checkpoint is pinnable,
// the min (max) fixpoints return consistent cuts that cannot be lowered
// (raised) in any coordinate.
func TestPropertyMinMaxAreTightAndConsistent(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		f := buildFixture(t, seed)
		for i := 0; i < f.p.N; i++ {
			x := f.p.LastIndex(model.ProcID(i)) / 2
			id := model.CkptID{Proc: model.ProcID(i), Index: x}
			min, err := MinConsistentContaining(f.p, id)
			if err != nil {
				continue // useless checkpoint
			}
			assertConsistent(t, f.p, min, "min")
			for k := range min {
				if model.ProcID(k) == id.Proc || min[k] == 0 {
					continue
				}
				lowered := min.Clone()
				lowered[k]--
				if ok, _ := IsConsistent(f.p, lowered); ok {
					t.Fatalf("seed %d: min %v for %v not minimal at %d", seed, min, id, k)
				}
			}
			max, err := MaxConsistentContaining(f.p, id)
			if err != nil {
				t.Fatalf("seed %d: max for pinnable %v failed: %v", seed, id, err)
			}
			assertConsistent(t, f.p, max, "max")
			if !min.DominatedBy(max) {
				t.Fatalf("seed %d: min %v above max %v", seed, min, max)
			}
			for k := range max {
				if model.ProcID(k) == id.Proc || max[k] == f.p.LastIndex(model.ProcID(k)) {
					continue
				}
				raised := max.Clone()
				raised[k]++
				if ok, _ := IsConsistent(f.p, raised); ok {
					t.Fatalf("seed %d: max %v for %v not maximal at %d", seed, max, id, k)
				}
			}
		}
	}
}

// TestPropertyRecoveryLineIsMaximalConsistent: the recovery line is the
// greatest consistent cut below the bounds.
func TestPropertyRecoveryLineIsMaximalConsistent(t *testing.T) {
	for seed := int64(1); seed <= propertySeeds; seed++ {
		f := buildFixture(t, seed)
		bounds := make(model.GlobalCheckpoint, f.p.N)
		for i := range bounds {
			bounds[i] = f.p.LastIndex(model.ProcID(i))
		}
		line, err := RecoveryLine(f.p, bounds)
		if err != nil {
			t.Fatalf("seed %d: line: %v", seed, err)
		}
		assertConsistent(t, f.p, line, "recovery line")
		if !line.DominatedBy(bounds) {
			t.Fatalf("seed %d: line %v exceeds bounds %v", seed, line, bounds)
		}
		for k := range line {
			if line[k] == bounds[k] {
				continue
			}
			raised := line.Clone()
			raised[k]++
			if ok, _ := IsConsistent(f.p, raised); ok {
				t.Fatalf("seed %d: line %v not maximal at %d", seed, line, k)
			}
		}
	}
}

// TestPropertyCanExtendMatchesPinning mirrors the Figure 1 test on random
// patterns: the Netzer–Xu zigzag criterion for a cross-process pair agrees
// with the orphan fixpoint.
func TestPropertyCanExtendMatchesPinning(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		f := buildFixture(t, seed)
		forEachPair(f.p, func(a, b model.CkptID) {
			if a.Proc == b.Proc {
				return
			}
			_, err := MinConsistentContaining(f.p, a, b)
			if got := f.chains.CanExtend([]model.CkptID{a, b}); got != (err == nil) {
				t.Fatalf("seed %d: CanExtend(%v,%v) = %v but pin err = %v", seed, a, b, got, err)
			}
		})
	}
}

func assertConsistent(t *testing.T, p *model.Pattern, g model.GlobalCheckpoint, what string) {
	t.Helper()
	ok, err := IsConsistent(p, g)
	if err != nil {
		t.Fatalf("%s %v: %v", what, g, err)
	}
	if !ok {
		orphan, _ := FindOrphan(p, g)
		t.Fatalf("%s %v inconsistent: %v", what, g, orphan)
	}
}

// TestPropertyPrefixAtRecoveryLinePreservesAnnotations: slicing a pattern
// at a consistent cut keeps a valid pattern whose recorded dependency
// vectors still match an offline recomputation — the history a recovered
// system keeps is itself a well-formed, correctly annotated run.
func TestPropertyPrefixAtRecoveryLinePreservesAnnotations(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		p := randomPattern(t, seed, 3+int(seed%3), 60)
		// Annotate with the offline vectors so the prefix has something to
		// preserve.
		tdvs, err := ComputeTDVs(p)
		if err != nil {
			t.Fatalf("seed %d: tdvs: %v", seed, err)
		}
		for i := 0; i < p.N; i++ {
			for x := range p.Checkpoints[i] {
				p.Checkpoints[i][x].TDV = tdvs.At(model.CkptID{Proc: model.ProcID(i), Index: x}).Clone()
			}
		}
		bounds := make(model.GlobalCheckpoint, p.N)
		for i := range bounds {
			bounds[i] = p.LastIndex(model.ProcID(i))
		}
		line, err := RecoveryLine(p, bounds)
		if err != nil {
			t.Fatalf("seed %d: line: %v", seed, err)
		}
		prefix, err := p.Prefix(line)
		if err != nil {
			t.Fatalf("seed %d: prefix at %v: %v", seed, line, err)
		}
		if err := prefix.Validate(); err != nil {
			t.Fatalf("seed %d: prefix invalid: %v", seed, err)
		}
		if err := VerifyRecordedTDVs(prefix); err != nil {
			t.Fatalf("seed %d: prefix annotations broken: %v", seed, err)
		}
	}
}

// TestGraphCanExtendMatchesChains: Wang's R-graph rule gives the
// Netzer–Xu answer of the chain closure on sets of one to three
// checkpoints of distinct processes, and two checkpoints of one process
// never extend to a global checkpoint.
func TestGraphCanExtendMatchesChains(t *testing.T) {
	extendable, not := 0, 0
	for seed := int64(1); seed <= propertySeeds; seed++ {
		f := buildFixture(t, seed)
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < 200; k++ {
			procs := rng.Perm(f.p.N)[:1+rng.Intn(3)]
			set := make([]model.CkptID, len(procs))
			for s, i := range procs {
				set[s] = model.CkptID{Proc: model.ProcID(i), Index: rng.Intn(len(f.p.Checkpoints[i]))}
			}
			got := f.g.CanExtend(set)
			if want := f.chains.CanExtend(set); got != want {
				t.Fatalf("seed %d: Graph.CanExtend(%v) = %v, Chains.CanExtend says %v\n%s", seed, set, got, want, f.p.ASCII())
			}
			if got {
				extendable++
			} else {
				not++
			}
		}
		if len(f.p.Checkpoints[0]) > 1 && f.g.CanExtend([]model.CkptID{{Proc: 0, Index: 0}, {Proc: 0, Index: 1}}) {
			t.Fatalf("seed %d: C{0,0} and C{0,1} extend to one global checkpoint", seed)
		}
	}
	if extendable == 0 || not == 0 {
		t.Fatalf("degenerate corpus: %d sets extend, %d do not", extendable, not)
	}
}
