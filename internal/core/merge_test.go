package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/rdt-go/rdt/internal/vclock"
)

// mkPB builds a full BHMR piggyback for crafting merge scenarios.
func mkPB(tdv []int, simple []bool, set ...[2]int) Piggyback {
	n := len(tdv)
	m := vclock.IdentityMatrix(n)
	for _, rc := range set {
		m.Set(rc[0], rc[1], true)
	}
	return Piggyback{TDV: vclock.Vec(tdv), Simple: vclock.Bools(simple), Causal: m}
}

// TestMergeOverwritesOnGreaterIndex: a piggyback carrying a strictly newer
// interval of P_k must replace row k of the causal matrix and the simple
// entry, not accumulate into them (the knowledge concerns a *different*
// checkpoint interval).
func TestMergeOverwritesOnGreaterIndex(t *testing.T) {
	inst, _ := newInst(t, KindBHMR, 0, 3)
	bh := inst.(*bhmr)

	// Seed stale knowledge about P_1's interval 0... first install interval 1
	// knowledge with causal[1][2] set.
	pb1 := mkPB([]int{0, 1, 0}, []bool{false, true, false}, [2]int{1, 2})
	bh.OnArrival(1, pb1)
	if !bh.causal.At(1, 2) || bh.tdv[1] != 1 {
		t.Fatalf("setup failed: tdv=%v causal=\n%v", bh.tdv, bh.causal)
	}

	// Now interval 2 of P_1 arrives without that path: row must be replaced.
	pb2 := mkPB([]int{0, 2, 0}, []bool{false, false, false})
	bh.OnArrival(1, pb2)
	if bh.tdv[1] != 2 {
		t.Errorf("tdv[1] = %d, want 2", bh.tdv[1])
	}
	if bh.causal.At(1, 2) {
		t.Error("stale causal[1][2] survived a newer interval")
	}
	if bh.simple[1] {
		t.Error("stale simple[1] survived a newer interval")
	}
}

// TestMergeAccumulatesOnEqualIndex: knowledge about the *same* interval is
// additive for the causal matrix (OR) and conjunctive for simple (AND).
func TestMergeAccumulatesOnEqualIndex(t *testing.T) {
	inst, _ := newInst(t, KindBHMR, 0, 4)
	bh := inst.(*bhmr)

	// Two messages reporting on the same interval 1 of P_1, with different
	// causal paths known.
	pbA := mkPB([]int{0, 1, 0, 0}, []bool{false, true, false, false}, [2]int{1, 2})
	pbB := mkPB([]int{0, 1, 0, 0}, []bool{false, false, false, false}, [2]int{1, 3})
	bh.OnArrival(1, pbA)
	bh.OnArrival(1, pbB)
	if !bh.causal.At(1, 2) || !bh.causal.At(1, 3) {
		t.Errorf("equal-interval knowledge not accumulated:\n%v", bh.causal)
	}
	if bh.simple[1] {
		t.Error("simple[1] should be false: one report said non-simple")
	}
}

// TestMergeSetsSenderColumnTransitively: after a delivery from P_s, every
// process l with a known path to P_s gains a path to the receiver
// (causal[l][i] |= causal[l][s]).
func TestMergeSetsSenderColumnTransitively(t *testing.T) {
	inst, _ := newInst(t, KindBHMR, 2, 4)
	bh := inst.(*bhmr)

	// The piggyback says: C_{0,1} has a trackable path to C_{1,1} (row 0,
	// column 1 true) and the sender is P_1.
	pb := mkPB([]int{1, 1, 0, 0}, []bool{true, true, false, false}, [2]int{0, 1})
	bh.OnArrival(1, pb)
	if !bh.causal.At(1, 2) {
		t.Error("causal[sender][receiver] not set")
	}
	if !bh.causal.At(0, 2) {
		t.Error("transitive closure through the sender column missing: P_0 -> P_1 -> P_2")
	}
}

// TestMergeIgnoresOlderIndexes: a piggyback about an older interval leaves
// local knowledge untouched.
func TestMergeIgnoresOlderIndexes(t *testing.T) {
	inst, _ := newInst(t, KindBHMR, 0, 3)
	bh := inst.(*bhmr)
	bh.OnArrival(1, mkPB([]int{0, 2, 0}, []bool{false, true, false}, [2]int{1, 2}))
	if !bh.causal.At(1, 2) {
		t.Fatal("setup failed")
	}
	// Old news about interval 1 cannot clear interval-2 knowledge.
	bh.OnArrival(1, mkPB([]int{0, 1, 0}, []bool{false, false, false}))
	if bh.tdv[1] != 2 || !bh.causal.At(1, 2) {
		t.Errorf("older piggyback corrupted state: tdv=%v", bh.tdv)
	}
}

// TestTakeCheckpointResetsOwnRowOnly: a local checkpoint resets the
// process's own causal row (except the diagonal) and the simple entries,
// but keeps knowledge about other processes' intervals.
func TestTakeCheckpointResetsOwnRowOnly(t *testing.T) {
	inst, _ := newInst(t, KindBHMR, 0, 3)
	bh := inst.(*bhmr)
	bh.OnArrival(1, mkPB([]int{0, 1, 0}, []bool{false, true, false}, [2]int{1, 2}, [2]int{0, 1}))
	// The merge copied row 1 and set causal[1][0]=true, closure col 0.
	inst.TakeBasicCheckpoint()
	if !bh.causal.At(0, 0) {
		t.Error("diagonal cleared by checkpoint")
	}
	for c := 1; c < 3; c++ {
		if bh.causal.At(0, c) {
			t.Errorf("own row entry (0,%d) survived checkpoint", c)
		}
	}
	if !bh.causal.At(1, 2) {
		t.Error("knowledge about P_1 wrongly cleared by local checkpoint")
	}
	if bh.simple[1] {
		t.Error("simple[1] survived checkpoint")
	}
	if !bh.simple[0] {
		t.Error("simple[self] must stay true")
	}
}

// cellArrival is Figure 6's arrival at process proc written cell by cell,
// as merge was before it moved whole words: the forced checkpoint, when
// OnArrival reported one, then the merge of the piggyback from process
// from into tdv, simple (nil for variants A and B) and causal. It is the
// oracle of TestMergeMatchesCellOracle.
func cellArrival(kind Kind, proc, from int, forced bool, tdv vclock.Vec, simple vclock.Bools, causal *vclock.Matrix, pb Piggyback) {
	n := len(tdv)
	if forced {
		for j := range simple {
			if j != proc {
				simple[j] = false
			}
		}
		for l := 0; l < n; l++ {
			if l != proc || kind == KindBHMRCausalOnly {
				causal.Set(proc, l, false)
			}
		}
		tdv[proc]++
	}
	for k := 0; k < n; k++ {
		switch {
		case pb.TDV[k] > tdv[k]:
			tdv[k] = pb.TDV[k]
			if simple != nil {
				simple[k] = pb.Simple[k]
			}
			for l := 0; l < n; l++ {
				causal.Set(k, l, pb.Causal.At(k, l))
			}
		case pb.TDV[k] == tdv[k]:
			if simple != nil {
				simple[k] = simple[k] && pb.Simple[k]
			}
			for l := 0; l < n; l++ {
				causal.Set(k, l, causal.At(k, l) || pb.Causal.At(k, l))
			}
		}
	}
	causal.Set(from, proc, true)
	for l := 0; l < n; l++ {
		if causal.At(l, from) {
			causal.Set(l, proc, true)
		}
	}
	if kind == KindBHMRCausalOnly {
		for k := 0; k < n; k++ {
			causal.Set(k, k, false)
		}
	}
}

// TestMergeMatchesCellOracle drives a system of n processes of each BHMR
// kind through random sends, basic checkpoints and arrivals in random
// order, at widths where a causal-matrix row is part of a word, one word,
// and two or three words. After every arrival the receiver's tdv, simple
// and causal must equal what cellArrival makes of their values before it,
// and over the run the piggybacked entries must have been older, equal
// and newer than the receiver's.
func TestMergeMatchesCellOracle(t *testing.T) {
	for _, kind := range []Kind{KindBHMR, KindBHMRNoSimple, KindBHMRCausalOnly} {
		for _, n := range []int{5, 8, 64, 65, 130} {
			t.Run(fmt.Sprintf("%v/n=%d", kind, n), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(n)))
				insts := make([]*bhmr, n)
				for i := range insts {
					inst, err := New(kind, i, n, nil)
					if err != nil {
						t.Fatal(err)
					}
					insts[i] = inst.(*bhmr)
				}
				type message struct {
					from, to int
					pb       Piggyback
				}
				var inFlight []message
				var older, equal, newer int
				for arrivals := 0; arrivals < 300; {
					switch r := rng.Intn(10); {
					case r < 5 || len(inFlight) == 0:
						from, to := rng.Intn(n), rng.Intn(n-1)
						if to >= from {
							to++
						}
						pb := kind.NewPiggyback(n)
						if insts[from].SendInto(to, &pb) {
							insts[from].CheckpointAfterSend()
						}
						inFlight = append(inFlight, message{from, to, pb})
					case r < 9:
						i := rng.Intn(len(inFlight))
						m := inFlight[i]
						inFlight[i] = inFlight[len(inFlight)-1]
						inFlight = inFlight[:len(inFlight)-1]
						b := insts[m.to]
						tdv, simple, causal := b.tdv.Clone(), slices.Clone(b.simple), b.causal.Clone()
						for k := range tdv {
							switch {
							case m.pb.TDV[k] < tdv[k]:
								older++
							case m.pb.TDV[k] == tdv[k]:
								equal++
							default:
								newer++
							}
						}
						forced := b.OnArrival(m.from, m.pb)
						cellArrival(kind, m.to, m.from, forced, tdv, simple, causal, m.pb)
						if !b.tdv.Equal(tdv) || !slices.Equal(b.simple, simple) || !b.causal.Equal(causal) {
							t.Fatalf("arrival %d, P%d -> P%d (forced %v):\ntdv    %v, oracle %v\nsimple %v, oracle %v\ncausal\n%v\noracle\n%v",
								arrivals, m.from, m.to, forced, b.tdv, tdv, b.simple, simple, b.causal, causal)
						}
						arrivals++
					default:
						insts[rng.Intn(n)].TakeBasicCheckpoint()
					}
				}
				if older == 0 || equal == 0 || newer == 0 {
					t.Errorf("piggybacked entries: %d older, %d equal, %d newer; want each case", older, equal, newer)
				}
			})
		}
	}
}
