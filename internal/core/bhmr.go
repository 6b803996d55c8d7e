package core

import (
	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/vclock"
)

// bhmr implements the paper's protocol (Figure 6) and its two variants
// (Section 5.1). The per-process state extends the base with:
//
//   - simple[j]  — true when, to this process's knowledge, every causal
//     message chain from C_{j,TDV[j]} to the current state is simple, i.e.
//     crosses no intermediate checkpoint (full protocol only);
//   - causal[k][l] — true when, to this process's knowledge, there is an
//     on-line trackable R-path from C_{k,TDV[k]} to C_{l,TDV[l]}.
//
// The visible condition forcing a checkpoint before delivering m is
// C1 ∨ C2 (full), C1 ∨ C2' (variant A, no simple array), or C1 alone with
// a permanently-false causal diagonal (variant B).
type bhmr struct {
	base

	simple vclock.Bools   // nil for variants A and B
	causal *vclock.Matrix // diagonal permanently false for variant B
}

var _ Instance = (*bhmr)(nil)

func newBHMR(kind Kind, proc, n int, sink Sink) *bhmr {
	b := &bhmr{base: newBase(kind, proc, n, sink)}
	if kind == KindBHMRCausalOnly {
		b.causal = vclock.NewMatrix(n) // all false, including the diagonal
	} else {
		b.causal = vclock.IdentityMatrix(n)
	}
	if simple, _ := kind.Carries(); simple {
		b.simple = vclock.NewBools(n)
		b.simple[proc] = true // permanently true
	}
	b.takeCheckpoint(model.KindInitial)
	return b
}

// takeCheckpoint is the procedure of Figure 6: reset sent_to, reset the
// simple entries of the other processes and this process's causal row,
// record the checkpoint with the current TDV, and open the next interval.
func (b *bhmr) takeCheckpoint(kind model.CheckpointKind) {
	b.takeCheckpointPred(kind, "")
}

// takeCheckpointPred is takeCheckpoint with the forced-checkpoint
// attribution (the visible-condition clause that fired).
func (b *bhmr) takeCheckpointPred(kind model.CheckpointKind, predicate string) {
	if b.simple != nil {
		for j := range b.simple {
			if j != b.proc {
				b.simple[j] = false
			}
		}
	}
	keep := b.proc
	if b.kind == KindBHMRCausalOnly {
		keep = -1 // variant B also keeps the diagonal entry false
	}
	b.causal.ClearRowExcept(b.proc, keep)
	b.recordPred(kind, predicate)
}

func (b *bhmr) TakeBasicCheckpoint() { b.takeCheckpoint(model.KindBasic) }

func (b *bhmr) OnSend(to int) (Piggyback, bool) {
	if !b.pbSnapOK {
		b.pbSnap = Piggyback{TDV: b.snaps.vec(b.n), Causal: b.snaps.matrix(b.n)}
		if b.simple != nil {
			b.pbSnap.Simple = b.snaps.flags(b.n)
		}
		b.fill(&b.pbSnap)
		b.pbSnapOK = true
	}
	return b.pbSnap, b.send(to)
}

func (b *bhmr) SendInto(to int, dst *Piggyback) bool {
	b.fill(dst)
	return b.send(to)
}

// fill writes the piggybacked control state into dst's buffers: the
// vector, the causal matrix and, for the full protocol, the simple array.
func (b *bhmr) fill(dst *Piggyback) {
	copy(dst.TDV, b.tdv)
	dst.Causal.CopyFrom(b.causal)
	if b.simple != nil {
		copy(dst.Simple, b.simple)
	}
}

func (b *bhmr) CheckpointAfterSend() { b.takeCheckpointPred(model.KindForced, "after-send") }

func (b *bhmr) OnArrival(from int, pb Piggyback) bool {
	b.invalidateSnapshot() // merge below mutates the piggybacked state
	predicate := b.condition(pb)
	if predicate != "" {
		b.takeCheckpointPred(model.KindForced, predicate)
	}
	b.merge(from, pb)
	b.events++
	return predicate != ""
}

// condition evaluates the variant's visible condition on the pre-delivery
// state, returning the name of the clause that fired ("" when delivery
// needs no forced checkpoint). C1 is checked first, so a message firing
// both clauses is attributed to C1.
func (b *bhmr) condition(pb Piggyback) string {
	if b.c1(pb) {
		return "C1"
	}
	switch b.kind {
	case KindBHMR:
		if b.c2(pb) {
			return "C2"
		}
	case KindBHMRNoSimple:
		if b.c2prime(pb) {
			return "C2'"
		}
	default: // KindBHMRCausalOnly: C1 alone
	}
	return ""
}

// c1 is predicate C1: to this process's knowledge there is a breakable
// non-causal message chain, formed by m followed by a message already sent
// in the current interval, that has no causal sibling:
//
//	∃j: sent_to[j] ∧ ∃k: (m.TDV[k] > TDV[k] ∧ ¬m.causal[k][j])
func (b *bhmr) c1(pb Piggyback) bool {
	for j := range b.sentTo {
		if !b.sentTo[j] {
			continue
		}
		for k := range b.tdv {
			if pb.TDV[k] > b.tdv[k] && !pb.Causal.At(k, j) {
				return true
			}
		}
	}
	return false
}

// c2 is predicate C2: m closes a causal message chain issued from the
// current interval (m.TDV[i] = TDV[i]) that crossed a checkpoint
// (¬m.simple[i]) — breaking it here is the only way to prevent a
// non-causal chain from some C_{k,z} back to C_{k,z-1}.
func (b *bhmr) c2(pb Piggyback) bool {
	return pb.TDV[b.proc] == b.tdv[b.proc] && !pb.Simple[b.proc]
}

// c2prime is variant A's replacement for C2: m closes a causal chain
// issued from the current interval and brings any new dependency.
func (b *bhmr) c2prime(pb Piggyback) bool {
	return pb.TDV[b.proc] == b.tdv[b.proc] && b.newDependency(pb)
}

// merge applies the control-variable update of Figure 6 after the
// (possibly forced) checkpoint and before the delivery. A row whose
// piggybacked index is older than this process's is left alone; otherwise
// the piggybacked row is copied (newer index) or ORed in (same index) by
// one masked row operation, and the simple entry is copied or ANDed.
func (b *bhmr) merge(from int, pb Piggyback) {
	for k, own := range b.tdv {
		in := pb.TDV[k]
		if in < own {
			continue
		}
		same := in == own
		b.tdv[k] = in
		if b.simple != nil {
			b.simple[k] = bit(pb.Simple[k])&(bit(b.simple[k])|bit(!same)) != 0
		}
		b.causal.MergeRow(k, pb.Causal, same)
	}
	b.causal.Set(from, b.proc, true)
	b.causal.OrColInto(b.proc, from)
	if b.kind == KindBHMRCausalOnly {
		b.causal.ClearDiagonal()
	}
}

func (b *bhmr) WireSize() int {
	bits := func(n int) int { return (n + 7) / 8 }
	size := 4*b.n + bits(b.n*b.n) // TDV + causal matrix
	if b.kind == KindBHMR {
		size += bits(b.n) // simple array
	}
	return size
}

// Predicates exposes every visible condition of the protocol hierarchy,
// evaluated on this instance's current state for a message carrying pb.
// It exists so tests can verify the published implications pointwise
// (C1 ∨ C2 ⇒ C_FDAS ⇒ C_FDI and C_FDAS ⇒ C_NRAS ⇒ C_CBR).
type Predicates struct {
	C1, C2, C2Prime        bool
	FDAS, FDI, NRAS, CBR   bool
	NewDependency, Closing bool
}

// Evaluate computes all predicates on the instance's pre-delivery state.
// It requires pb to carry the full BHMR piggyback and must be called
// before OnArrival for the same message.
func (b *bhmr) Evaluate(pb Piggyback) Predicates {
	return Predicates{
		C1:            b.c1(pb),
		C2:            b.simple != nil && b.c2(pb),
		C2Prime:       b.c2prime(pb),
		FDAS:          b.afterFirstSend() && b.newDependency(pb),
		FDI:           b.events > 0 && b.newDependency(pb),
		NRAS:          b.afterFirstSend(),
		CBR:           b.events > 0,
		NewDependency: b.newDependency(pb),
		Closing:       pb.TDV[b.proc] == b.tdv[b.proc],
	}
}

// bit is 1 for true and 0 for false, so merge can combine flags without
// a branch per flag.
func bit(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}
