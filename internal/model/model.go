// Package model defines checkpoint and communication patterns — the formal
// objects (Ĥ, C_Ĥ) of Definition 2.1 — together with builders, validators and
// renderers for them.
//
// A pattern records, for a finite computation of n sequential processes, the
// per-process sequences of local checkpoints and the set of application
// messages exchanged, each message annotated with the checkpoint intervals
// containing its send and delivery events and with the local positions of
// those events inside their process timelines. Positions make the intra-
// interval event order visible, which is what distinguishes a causal message
// chain from a zigzag (non-causal) one.
//
// Terminology used throughout the repository:
//
//   - C_{i,x} is the x-th local checkpoint of process i (x starts at 0; every
//     process takes an initial checkpoint C_{i,0}).
//   - I_{i,x} (x >= 1) is the checkpoint interval: the events of process i
//     that occur after C_{i,x-1} and before C_{i,x}.
//   - An event in interval x therefore "belongs to" checkpoint C_{i,x'} for
//     all x' >= x, and is undone when process i rolls back to any checkpoint
//     C_{i,x'} with x' < x.
package model

import (
	"fmt"
	"slices"
	"strconv"
)

// ProcID identifies a process. Processes are numbered 0..N-1.
type ProcID int

// CheckpointKind classifies how a local checkpoint was taken.
type CheckpointKind int

// Checkpoint kinds. Initial checkpoints exist by assumption, basic
// checkpoints are taken independently by the application, forced checkpoints
// are induced by a communication-induced checkpointing protocol, and final
// checkpoints close the last interval of every process when a finite run
// ends (the model assumes every event is eventually followed by a
// checkpoint).
const (
	KindInitial CheckpointKind = iota + 1
	KindBasic
	KindForced
	KindFinal
)

// String returns a short human-readable name for the kind.
func (k CheckpointKind) String() string {
	switch k {
	case KindInitial:
		return "initial"
	case KindBasic:
		return "basic"
	case KindForced:
		return "forced"
	case KindFinal:
		return "final"
	default:
		return "kind(" + strconv.Itoa(int(k)) + ")"
	}
}

// CkptID names one local checkpoint C_{Proc,Index} inside a pattern.
type CkptID struct {
	Proc  ProcID
	Index int
}

// String renders the checkpoint as C{proc,index}. Hand-rolled rather
// than fmt.Sprintf: a violation's text is two of these, and violation
// lists run to thousands.
func (c CkptID) String() string {
	buf := make([]byte, 0, 16)
	buf = append(buf, 'C', '{')
	buf = strconv.AppendInt(buf, int64(c.Proc), 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(c.Index), 10)
	buf = append(buf, '}')
	return string(buf)
}

// Checkpoint is one recorded local checkpoint of a pattern.
type Checkpoint struct {
	Proc  ProcID         `json:"proc"`
	Index int            `json:"index"` // x in C_{i,x}
	Seq   int            `json:"seq"`   // position in the process's local event sequence
	Kind  CheckpointKind `json:"kind"`

	// TDV is the transitive dependency vector recorded with the checkpoint
	// by the protocol that took it, or nil when the run was not annotated.
	// Under RDT, TDV is also the minimum consistent global checkpoint
	// containing this checkpoint (Corollary 4.5).
	TDV []int `json:"tdv,omitempty"`
}

// ID returns the checkpoint's identifier.
func (c *Checkpoint) ID() CkptID { return CkptID{Proc: c.Proc, Index: c.Index} }

// Message is one application message of a pattern.
type Message struct {
	ID   int    `json:"id"`
	From ProcID `json:"from"`
	To   ProcID `json:"to"`

	// SendInterval is the x such that send(m) ∈ I_{From,x}; equivalently the
	// index of the first checkpoint of From taken at or after the send.
	SendInterval int `json:"sendInterval"`
	// DeliverInterval is the y such that deliver(m) ∈ I_{To,y}.
	DeliverInterval int `json:"deliverInterval"`

	// SendSeq and DeliverSeq are the local event-sequence positions of the
	// send and delivery events inside their respective process timelines.
	SendSeq    int `json:"sendSeq"`
	DeliverSeq int `json:"deliverSeq"`
}

// String renders the message with its interval endpoints.
func (m *Message) String() string {
	return fmt.Sprintf("m%d: P%d[I%d] -> P%d[I%d]", m.ID, m.From, m.SendInterval, m.To, m.DeliverInterval)
}

// Pattern is a checkpoint and communication pattern (Ĥ, C_Ĥ): the recorded
// checkpoints of every process plus every delivered message. Patterns are
// produced by the builder, by the simulator, or by the concurrent runtime,
// and consumed by the rollback-dependency analyses in internal/rgraph.
type Pattern struct {
	N int `json:"n"` // number of processes

	// Checkpoints[i][x] is C_{i,x}. Every process has at least the initial
	// checkpoint at index 0.
	Checkpoints [][]Checkpoint `json:"checkpoints"`

	// Messages lists every delivered message, in no particular order.
	Messages []Message `json:"messages"`
}

// NumCheckpoints returns the total number of local checkpoints.
func (p *Pattern) NumCheckpoints() int {
	total := 0
	for _, cs := range p.Checkpoints {
		total += len(cs)
	}
	return total
}

// LastIndex returns the index of the last checkpoint of process i.
func (p *Pattern) LastIndex(i ProcID) int { return len(p.Checkpoints[i]) - 1 }

// Checkpoint returns the checkpoint with the given identifier.
func (p *Pattern) Checkpoint(id CkptID) (*Checkpoint, error) {
	if id.Proc < 0 || int(id.Proc) >= p.N {
		return nil, fmt.Errorf("checkpoint %v: process out of range [0,%d)", id, p.N)
	}
	if id.Index < 0 || id.Index >= len(p.Checkpoints[id.Proc]) {
		return nil, fmt.Errorf("checkpoint %v: index out of range [0,%d)", id, len(p.Checkpoints[id.Proc]))
	}
	return &p.Checkpoints[id.Proc][id.Index], nil
}

// CountKind returns the number of checkpoints of the given kind.
func (p *Pattern) CountKind(kind CheckpointKind) int {
	count := 0
	for _, cs := range p.Checkpoints {
		for i := range cs {
			if cs[i].Kind == kind {
				count++
			}
		}
	}
	return count
}

// Stats summarizes a pattern for reporting.
type Stats struct {
	Processes int
	Messages  int
	Initial   int
	Basic     int
	Forced    int
	Final     int
}

// Total returns the total number of local checkpoints.
func (s Stats) Total() int { return s.Initial + s.Basic + s.Forced + s.Final }

// ForcedPerBasic returns the paper's overhead ratio R = forced/basic, or 0
// when no basic checkpoint was taken.
func (s Stats) ForcedPerBasic() float64 {
	if s.Basic == 0 {
		return 0
	}
	return float64(s.Forced) / float64(s.Basic)
}

// ForcedPerMessage returns the number of forced checkpoints per delivered
// message, or 0 when no message was delivered.
func (s Stats) ForcedPerMessage() float64 {
	if s.Messages == 0 {
		return 0
	}
	return float64(s.Forced) / float64(s.Messages)
}

// Stats computes summary statistics of the pattern.
func (p *Pattern) Stats() Stats {
	return Stats{
		Processes: p.N,
		Messages:  len(p.Messages),
		Initial:   p.CountKind(KindInitial),
		Basic:     p.CountKind(KindBasic),
		Forced:    p.CountKind(KindForced),
		Final:     p.CountKind(KindFinal),
	}
}

// GlobalCheckpoint is a global checkpoint: one local checkpoint index per
// process; entry i selects C_{i,g[i]}.
type GlobalCheckpoint []int

// Clone returns a copy of the global checkpoint.
func (g GlobalCheckpoint) Clone() GlobalCheckpoint {
	out := make(GlobalCheckpoint, len(g))
	copy(out, g)
	return out
}

// Equal reports whether two global checkpoints select the same local
// checkpoints.
func (g GlobalCheckpoint) Equal(other GlobalCheckpoint) bool { return slices.Equal(g, other) }

// DominatedBy reports whether g <= other componentwise.
func (g GlobalCheckpoint) DominatedBy(other GlobalCheckpoint) bool {
	if len(g) != len(other) {
		return false
	}
	for i := range g {
		if g[i] > other[i] {
			return false
		}
	}
	return true
}

// String renders the global checkpoint as {x0,x1,...}.
func (g GlobalCheckpoint) String() string {
	out := "{"
	for i, x := range g {
		if i > 0 {
			out += ","
		}
		out += strconv.Itoa(x)
	}
	return out + "}"
}
