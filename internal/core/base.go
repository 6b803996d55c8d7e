package core

import (
	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/vclock"
)

// base carries the state every protocol maintains: the transitive
// dependency vector, the sent_to array, and interval accounting.
type base struct {
	kind Kind
	proc int
	n    int
	sink Sink

	tdv    vclock.Vec
	sentTo vclock.Bools

	// events counts the send and delivery events of the current interval.
	events int
	forced int
	basic  int

	// sn is the checkpoint sequence number of the BCS protocol: bumped on
	// basic checkpoints, adopted from the piggyback on forced ones.
	sn int

	// pbSnap caches the piggyback snapshot of the current control state.
	// Sends do not change the piggybacked state (TDV, simple, causal, sn),
	// so consecutive sends with no intervening checkpoint or delivery can
	// share one immutable snapshot instead of cloning per message. Any
	// state mutation (recordPred, OnArrival) invalidates it.
	pbSnap   Piggyback
	pbSnapOK bool

	// snaps holds the buffers of the piggyback snapshots OnSend hands out.
	snaps arena
}

func newBase(kind Kind, proc, n int, sink Sink) base {
	return base{
		kind:   kind,
		proc:   proc,
		n:      n,
		sink:   sink,
		tdv:    vclock.NewVec(n),
		sentTo: vclock.NewBools(n),
	}
}

func (b *base) Kind() Kind           { return b.kind }
func (b *base) Proc() int            { return b.proc }
func (b *base) TDV() vclock.Vec      { return b.tdv.Clone() }
func (b *base) CurrentInterval() int { return b.tdv[b.proc] }
func (b *base) Forced() int          { return b.forced }
func (b *base) Basic() int           { return b.basic }

// send performs the protocol-independent part of a send to process to:
// it marks sent_to and counts the event. It reports whether the protocol
// takes a checkpoint after every send (CAS).
func (b *base) send(to int) (forceAfter bool) {
	b.sentTo[to] = true
	b.events++
	return b.kind == KindCAS
}

// afterFirstSend reports whether a send occurred in the current interval
// (Wang's after_first_send flag, derivable from sent_to).
func (b *base) afterFirstSend() bool { return b.sentTo.Any() }

// record performs the protocol-independent part of take_checkpoint: it
// resets sent_to, announces the checkpoint (whose index is the current
// interval index) with the dependency vector, lent for the sink call,
// and advances TDV[proc] to the new interval.
func (b *base) record(kind model.CheckpointKind) {
	b.recordPred(kind, "")
}

// recordPred is record with the forced-checkpoint attribution: predicate
// names the visible condition that fired (empty for basic and initial
// checkpoints).
func (b *base) recordPred(kind model.CheckpointKind, predicate string) {
	b.invalidateSnapshot()
	b.sentTo.Reset()
	b.events = 0
	switch kind {
	case model.KindForced:
		b.forced++
	case model.KindBasic:
		b.basic++
	}
	if b.sink != nil {
		b.sink(CheckpointRecord{
			Proc:      b.proc,
			Index:     b.tdv[b.proc],
			Kind:      kind,
			TDV:       b.tdv,
			Predicate: predicate,
		})
	}
	b.tdv[b.proc]++
}

// invalidateSnapshot drops the cached piggyback snapshot; it must be
// called before any mutation of the piggybacked control state.
func (b *base) invalidateSnapshot() { b.pbSnapOK = false }

// newDependency reports whether the piggybacked vector carries a dependency
// the local vector does not know yet (∃k: m.TDV[k] > TDV[k]).
func (b *base) newDependency(pb Piggyback) bool {
	for k := range b.tdv {
		if pb.TDV[k] > b.tdv[k] {
			return true
		}
	}
	return false
}

// vector is the instance type for all protocols whose per-process state is
// just the base: the uncoordinated baseline and the index/flag protocols
// None, FDAS, FDI, NRAS, CBR, CAS. Their only difference is the visible
// condition evaluated on arrival (and, for CAS, the checkpoint-after-send
// rule).
type vector struct {
	base
}

var _ Instance = (*vector)(nil)

func newVector(kind Kind, proc, n int, sink Sink) *vector {
	v := &vector{base: newBase(kind, proc, n, sink)}
	v.record(model.KindInitial)
	return v
}

func (v *vector) TakeBasicCheckpoint() {
	v.sn++
	v.record(model.KindBasic)
}

func (v *vector) OnSend(to int) (Piggyback, bool) {
	if !v.pbSnapOK {
		v.pbSnap = Piggyback{TDV: v.snaps.vec(v.n)}
		v.fill(&v.pbSnap)
		v.pbSnapOK = true
	}
	return v.pbSnap, v.send(to)
}

func (v *vector) SendInto(to int, dst *Piggyback) bool {
	v.fill(dst)
	return v.send(to)
}

// fill writes the piggybacked control state into dst's buffers: the
// vector and, for BCS, the sequence number.
func (v *vector) fill(dst *Piggyback) {
	copy(dst.TDV, v.tdv)
	if v.kind == KindBCS {
		dst.SN = v.sn
	}
}

func (v *vector) CheckpointAfterSend() { v.recordPred(model.KindForced, "after-send") }

func (v *vector) OnArrival(_ int, pb Piggyback) bool {
	v.invalidateSnapshot() // the merge below mutates the piggybacked state
	predicate := v.condition(pb)
	if predicate != "" {
		if v.kind == KindBCS {
			// Adopt the sender's sequence number: the forced checkpoint
			// joins the consistent cut of that number.
			v.sn = pb.SN
		}
		v.recordPred(model.KindForced, predicate)
	}
	v.tdv.MaxInto(pb.TDV)
	v.events++
	return predicate != ""
}

// condition evaluates the protocol's visible condition for a message about
// to be delivered, returning the name of the predicate that fired ("" when
// no forced checkpoint is needed).
func (v *vector) condition(pb Piggyback) string {
	switch v.kind {
	case KindBCS:
		if pb.SN > v.sn {
			return "future-sn"
		}
	case KindFDAS:
		if v.afterFirstSend() && v.newDependency(pb) {
			return "fdas"
		}
	case KindFDI:
		if v.events > 0 && v.newDependency(pb) {
			return "fdi"
		}
	case KindNRAS:
		if v.afterFirstSend() {
			return "nras"
		}
	case KindCBR:
		if v.events > 0 {
			return "cbr"
		}
	default: // KindNone, KindCAS: never forced on arrival
	}
	return ""
}

func (v *vector) WireSize() int {
	switch v.kind {
	case KindBCS:
		return 4 // the checkpoint sequence number
	case KindFDAS, KindFDI:
		return 4 * v.n // the dependency vector
	default: // None, NRAS, CBR, CAS need no piggybacked control information
		return 0
	}
}
