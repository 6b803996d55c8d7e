// Package core implements the communication-induced checkpointing
// protocols: the paper's protocol (called BHMR here, after its authors)
// with its two published variants, Wang's FDAS and FDI, Russell's
// no-receive-after-send, checkpoint-before-receive, Wu–Fuchs
// checkpoint-after-send, and an uncoordinated baseline.
//
// Each protocol is a per-process state machine (Instance) driven by three
// hooks: TakeBasicCheckpoint when the application checkpoints
// independently, OnSend when it sends, and OnArrival when a message
// arrives and is about to be delivered. OnArrival evaluates the protocol's
// visible condition and, when it holds, takes a forced checkpoint *before*
// the delivery, breaking the non-causal message chains the condition
// detected. All checkpoints are announced through a Sink callback so the
// embedding engine (simulator or runtime) can record them in the trace in
// the right order.
//
// Every instance — whatever the protocol — maintains and records
// transitive dependency vectors, so that all traces carry the annotation
// used by the offline analyses; WireSize reports the control information
// the *published* protocol actually piggybacks.
package core

import (
	"fmt"

	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/vclock"
)

// Kind identifies a checkpointing protocol.
type Kind int

// The protocols. All of them except KindNone and KindBCS guarantee the
// RDT property (KindBCS guarantees the weaker Z-cycle freedom); they are
// ordered roughly from least to most conservative (fewest to most forced
// checkpoints).
const (
	// KindNone takes no forced checkpoints: processes checkpoint
	// independently. Runs may violate RDT and exhibit useless checkpoints
	// and the domino effect.
	KindNone Kind = iota + 1
	// KindBCS is the Briatico–Ciuffoletti–Simoncini index-based protocol:
	// processes piggyback a checkpoint sequence number and take a forced
	// checkpoint (adopting the higher number) before delivering a message
	// from the future. It guarantees that no checkpoint is useless (every
	// checkpoint belongs to the consistent cut of its sequence number —
	// Z-cycle freedom) but NOT the stronger RDT property; it is included
	// as the classic weaker-guarantee comparator.
	KindBCS
	// KindBHMR is the paper's protocol (Figure 6): condition C1 ∨ C2 with
	// the full simple/causal tracking of causal siblings.
	KindBHMR
	// KindBHMRNoSimple is variant 1 of Section 5.1: the simple array is
	// dropped and C2 is replaced by C2' (any new dependency closing a
	// causal chain back to the current interval forces a checkpoint).
	KindBHMRNoSimple
	// KindBHMRCausalOnly is variant 2 of Section 5.1: the simple array is
	// dropped, the diagonal of the causal matrix is kept permanently
	// false, and C1 alone is used.
	KindBHMRCausalOnly
	// KindFDAS is Wang's Fixed-Dependency-After-Send: force when a message
	// carrying a new dependency arrives after the first send of the
	// current interval.
	KindFDAS
	// KindFDI is Wang's Fixed-Dependency-Interval: force when a message
	// carrying a new dependency arrives in a non-empty interval.
	KindFDI
	// KindNRAS is Russell's No-Receive-After-Send: force before any
	// delivery when a send already occurred in the current interval.
	KindNRAS
	// KindCBR is Checkpoint-Before-Receive: force before any delivery in a
	// non-empty interval, so every delivery opens its interval.
	KindCBR
	// KindCAS is Wu–Fuchs Checkpoint-After-Send: take a checkpoint
	// immediately after every send, so every send closes its interval.
	KindCAS
)

// String returns the protocol's conventional name.
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindBCS:
		return "bcs"
	case KindBHMR:
		return "bhmr"
	case KindBHMRNoSimple:
		return "bhmr-a"
	case KindBHMRCausalOnly:
		return "bhmr-b"
	case KindFDAS:
		return "fdas"
	case KindFDI:
		return "fdi"
	case KindNRAS:
		return "nras"
	case KindCBR:
		return "cbr"
	case KindCAS:
		return "cas"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ParseKind maps a protocol name (as produced by String) back to its Kind.
func ParseKind(name string) (Kind, error) {
	for _, k := range Kinds() {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown protocol %q", name)
}

// Kinds returns every protocol kind, least conservative first.
func Kinds() []Kind {
	return []Kind{
		KindNone, KindBCS, KindBHMR, KindBHMRNoSimple, KindBHMRCausalOnly,
		KindFDAS, KindFDI, KindNRAS, KindCBR, KindCAS,
	}
}

// RDTKinds returns the protocols that guarantee the RDT property.
func RDTKinds() []Kind {
	return []Kind{
		KindBHMR, KindBHMRNoSimple, KindBHMRCausalOnly,
		KindFDAS, KindFDI, KindNRAS, KindCBR, KindCAS,
	}
}

// Carries reports which optional piggyback fields protocol k fills: the
// simple array (KindBHMR only) and the causal matrix (the BHMR family).
// Every protocol fills TDV, and KindBCS also SN.
func (k Kind) Carries() (simple, causal bool) {
	switch k {
	case KindBHMR:
		return true, true
	case KindBHMRNoSimple, KindBHMRCausalOnly:
		return false, true
	default:
		return false, false
	}
}

// NewPiggyback returns a piggyback shaped for protocol k in a system of
// n processes (the fields Carries reports), storage for SendInto.
func (k Kind) NewPiggyback(n int) Piggyback {
	pb := Piggyback{TDV: vclock.NewVec(n)}
	simple, causal := k.Carries()
	if simple {
		pb.Simple = vclock.NewBools(n)
	}
	if causal {
		pb.Causal = vclock.NewMatrix(n)
	}
	return pb
}

// Piggyback is the control information attached to an application message.
// Fields not used by a protocol are nil.
type Piggyback struct {
	// TDV is the sender's transitive dependency vector at send time.
	TDV vclock.Vec
	// SN is the sender's checkpoint sequence number (KindBCS only).
	SN int
	// Simple is the sender's simple array (KindBHMR only): Simple[k] is
	// true when all causal message chains known to the sender from
	// C_{k,TDV[k]} are simple (contain no intermediate checkpoint).
	Simple vclock.Bools
	// Causal is the sender's causal matrix (BHMR family): Causal[k][l] is
	// true when the sender knows an on-line trackable R-path from
	// C_{k,TDV[k]} to C_{l,TDV[l]}.
	Causal *vclock.Matrix
}

// Clone deep-copies the piggyback (transports that do not serialize must
// clone to preserve message-passing semantics).
func (pb Piggyback) Clone() Piggyback {
	out := Piggyback{SN: pb.SN}
	if pb.TDV != nil {
		out.TDV = pb.TDV.Clone()
	}
	if pb.Simple != nil {
		out.Simple = pb.Simple.Clone()
	}
	if pb.Causal != nil {
		out.Causal = pb.Causal.Clone()
	}
	return out
}

// CheckpointRecord announces a local checkpoint taken by an instance.
type CheckpointRecord struct {
	Proc  int
	Index int
	Kind  model.CheckpointKind
	// TDV is the vector recorded with the checkpoint. It is the
	// instance's own vector, lent for the length of the Sink call: the
	// instance writes it again afterwards, so a sink that keeps it keeps
	// a copy.
	TDV vclock.Vec

	// Predicate names the visible condition that fired, for forced
	// checkpoints ("C1", "C2", "C2'", "fdas", "fdi", "nras", "cbr",
	// "after-send", "future-sn"); empty otherwise. It is what lets the
	// observability layer attribute forced-checkpoint overhead to the
	// exact clause of the protocol's visible characterization.
	Predicate string
}

// Sink receives checkpoint records in the order they are taken. It may be
// nil when the embedder does not record traces. A sink that keeps a
// record's TDV past the call copies it.
type Sink func(CheckpointRecord)

// Instance is the per-process protocol state machine. Instances are not
// safe for concurrent use; the embedding engine serializes calls.
type Instance interface {
	// Kind returns the protocol this instance runs.
	Kind() Kind
	// Proc returns the process this instance belongs to.
	Proc() int

	// TakeBasicCheckpoint records an application-initiated (basic) local
	// checkpoint.
	TakeBasicCheckpoint()

	// OnSend must be called when the process sends a message to process
	// to. It returns the piggyback to attach and whether the protocol
	// requires a forced checkpoint immediately after the send event; the
	// engine must then call CheckpointAfterSend once the send has been
	// recorded.
	//
	// The returned piggyback is an immutable snapshot of the sender's
	// control state: callers must not modify it (use Clone first), and
	// consecutive sends with no intervening checkpoint or delivery may
	// return the same shared snapshot, since sends do not change the
	// piggybacked state.
	OnSend(to int) (pb Piggyback, forceAfter bool)

	// SendInto is OnSend for a caller that owns the piggyback's storage:
	// it has OnSend's effects on the instance and returns the same
	// forceAfter, but writes the piggyback OnSend would return into dst's
	// buffers instead of handing out a snapshot, and allocates nothing.
	// dst must be shaped for the protocol: a vector of n entries and,
	// where Carries reports them, a simple array of n entries and an
	// n x n causal matrix; the fields the protocol does not use are left
	// as they are, nil in a shaped dst. dst shares nothing with the
	// instance, so the caller may write it afterwards.
	SendInto(to int, dst *Piggyback) (forceAfter bool)

	// CheckpointAfterSend takes the forced checkpoint requested by OnSend.
	CheckpointAfterSend()

	// OnArrival must be called when a message from process from, carrying
	// pb, arrives and is about to be delivered. It reports whether the
	// protocol took a forced checkpoint before the delivery, merges the
	// piggybacked control information, and accounts for the delivery.
	OnArrival(from int, pb Piggyback) (forced bool)

	// TDV returns a copy of the current transitive dependency vector.
	TDV() vclock.Vec
	// CurrentInterval returns the index of the current checkpoint interval
	// (the index of the next checkpoint).
	CurrentInterval() int
	// Forced and Basic return how many forced and basic checkpoints this
	// instance has taken (the initial checkpoint counts as neither).
	Forced() int
	Basic() int

	// WireSize returns the number of bytes of control information the
	// published protocol piggybacks per message for this system size
	// (4-byte checkpoint indexes, bit-packed boolean structures).
	WireSize() int
}

// New creates a protocol instance for process proc in a system of n
// processes. The sink may be nil. The instance immediately takes the
// initial checkpoint C_{proc,0}, announcing it to the sink, as the model
// prescribes.
func New(k Kind, proc, n int, sink Sink) (Instance, error) {
	if n <= 0 || proc < 0 || proc >= n {
		return nil, fmt.Errorf("new %v instance: process %d out of range [0,%d)", k, proc, n)
	}
	switch k {
	case KindNone, KindBCS, KindFDAS, KindFDI, KindNRAS, KindCBR, KindCAS:
		return newVector(k, proc, n, sink), nil
	case KindBHMR, KindBHMRNoSimple, KindBHMRCausalOnly:
		return newBHMR(k, proc, n, sink), nil
	default:
		return nil, fmt.Errorf("unknown protocol kind %d", int(k))
	}
}
