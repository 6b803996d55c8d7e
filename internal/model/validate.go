package model

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// ErrInvalidPattern is wrapped by every validation failure so callers can
// match the whole class with errors.Is.
var ErrInvalidPattern = errors.New("invalid pattern")

// Validate checks the structural well-formedness of the pattern:
//
//   - at least one process, every process has an initial checkpoint at
//     index 0 and contiguous indexes;
//   - local event sequence numbers are strictly increasing along each
//     process timeline (checkpoints and message endpoints interleaved);
//   - every message endpoint names an existing process, a send interval of
//     at least 1, and interval annotations consistent with the event
//     sequence numbers: an event with sequence s in interval x must satisfy
//     Seq(C_{i,x-1}) < s and, if C_{i,x} exists, s < Seq(C_{i,x});
//   - message IDs are unique, and no message goes to its own sender.
//
// It is the check for patterns that may come from anywhere: trace.Load
// (JSON traces, rdtcheck's input), Prefix, the rgraph analyses'
// constructors, DecodeBuilder (on the run it decodes) and the tests.
// Builder.Finalize does not call it: the builder's counters make all but
// three of these checks hold by construction (DESIGN.md §7).
func (p *Pattern) Validate() error {
	_, _, err := p.ValidateEndpoints(nil, nil)
	return err
}

// Endpoint is one message endpoint of a pattern: the send of
// p.Messages[Msg], or its delivery when Deliver is set.
type Endpoint struct {
	Seq     int
	Msg     int32
	Deliver bool
}

// ValidateEndpoints is Validate, and on a pattern it accepts it also
// returns the message endpoints laid out by (process, interval), and by
// seq inside each interval, reusing the capacity of eps and start. Number
// the checkpoints in (process, index) order: the endpoints that follow
// the checkpoint numbered b on its process, those of the interval it
// opens, are eps[start[b]:start[b+1]]. So a process's timeline is its
// checkpoints with their buckets after them, and a replay needs no sort.
func (p *Pattern) ValidateEndpoints(eps []Endpoint, start []int) ([]Endpoint, []int, error) {
	if p.N <= 0 {
		return nil, nil, errNoProcesses
	}
	if len(p.Checkpoints) != p.N {
		return nil, nil, fmt.Errorf("%w: %d checkpoint rows for %d processes", ErrInvalidPattern, len(p.Checkpoints), p.N)
	}
	for i, cs := range p.Checkpoints {
		if len(cs) == 0 {
			return nil, nil, fmt.Errorf("%w: process %d has no checkpoints", ErrInvalidPattern, i)
		}
		for x := range cs {
			ck := &cs[x]
			if int(ck.Proc) != i {
				return nil, nil, fmt.Errorf("%w: checkpoint %v stored under process %d", ErrInvalidPattern, ck.ID(), i)
			}
			if ck.Index != x {
				return nil, nil, fmt.Errorf("%w: process %d checkpoint %d has index %d", ErrInvalidPattern, i, x, ck.Index)
			}
			if x > 0 && ck.Seq <= cs[x-1].Seq {
				return nil, nil, fmt.Errorf("%w: process %d checkpoints %d,%d have non-increasing seq", ErrInvalidPattern, i, x-1, x)
			}
			if err := ck.checkTDV(p.N); err != nil {
				return nil, nil, err
			}
		}
		if cs[0].Kind != KindInitial {
			return nil, nil, fmt.Errorf("%w: process %d first checkpoint has kind %v", ErrInvalidPattern, i, cs[0].Kind)
		}
	}

	seen := make(map[int]bool, len(p.Messages))
	for i := range p.Messages {
		m := &p.Messages[i]
		if seen[m.ID] {
			return nil, nil, fmt.Errorf("%w: duplicate message id %d", ErrInvalidPattern, m.ID)
		}
		seen[m.ID] = true
		if err := p.checkProc(m.From); err != nil {
			return nil, nil, fmt.Errorf("message %d from: %w", m.ID, err)
		}
		if err := p.checkProc(m.To); err != nil {
			return nil, nil, fmt.Errorf("message %d to: %w", m.ID, err)
		}
		if err := m.checkNotSelf(); err != nil {
			return nil, nil, err
		}
	}

	for i := range p.Messages {
		m := &p.Messages[i]
		if err := p.checkEndpoint("send", m.ID, m.From, m.SendSeq, m.SendInterval); err != nil {
			return nil, nil, err
		}
		if err := p.checkEndpoint("delivery", m.ID, m.To, m.DeliverSeq, m.DeliverInterval); err != nil {
			return nil, nil, err
		}
	}

	// Sequence numbers must be unique per process across all event types.
	// A process's endpoints come out of endpointsByInterval in seq order,
	// so the duplicate reported is the lowest one of the lowest process
	// that has one.
	eps, start = p.endpointsByInterval(eps, start)
	b := 0
	for i, cs := range p.Checkpoints {
		lo := start[b]
		b += len(cs)
		for k := lo + 1; k < start[b]; k++ {
			if eps[k].Seq == eps[k-1].Seq {
				return nil, nil, fmt.Errorf("%w: process %d has two events with seq %d", ErrInvalidPattern, i, eps[k].Seq)
			}
		}
	}
	return eps, start, nil
}

// endpointsByInterval is ValidateEndpoints' layout, on a pattern whose
// intervals are checked (an interval out of range panics). Once
// its interval is checked, an endpoint lies strictly between the
// checkpoints that delimit that interval, and checkpoint seqs increase,
// so a process's intervals split its endpoints in seq order: only the
// endpoints inside one interval need a comparison sort. No allocation
// depends on a Seq value.
func (p *Pattern) endpointsByInterval(eps []Endpoint, start []int) ([]Endpoint, []int) {
	first := make([]int, p.N+1) // the number of C_{i,0}
	for i, cs := range p.Checkpoints {
		first[i+1] = first[i] + len(cs)
	}
	nodes := first[p.N]
	// A counting sort: start[b+1] counts bucket b, the running sums turn
	// start[b] into its start, and placing advances start[b] to its end,
	// which the final shift makes start[b+1].
	start = slices.Grow(start[:0], nodes+1)[:nodes+1]
	clear(start)
	for i := range p.Messages {
		m := &p.Messages[i]
		start[first[m.From]+m.SendInterval]++
		start[first[m.To]+m.DeliverInterval]++
	}
	for b := 1; b <= nodes; b++ {
		start[b] += start[b-1]
	}
	eps = slices.Grow(eps[:0], 2*len(p.Messages))[:2*len(p.Messages)]
	for i := range p.Messages {
		m := &p.Messages[i]
		b := first[m.From] + m.SendInterval - 1
		eps[start[b]] = Endpoint{Seq: m.SendSeq, Msg: int32(i)}
		start[b]++
		b = first[m.To] + m.DeliverInterval - 1
		eps[start[b]] = Endpoint{Seq: m.DeliverSeq, Msg: int32(i), Deliver: true}
		start[b]++
	}
	copy(start[1:], start[:nodes])
	start[0] = 0
	for b := range nodes {
		slices.SortFunc(eps[start[b]:start[b+1]], func(x, y Endpoint) int { return cmp.Compare(x.Seq, y.Seq) })
	}
	return eps, start
}

// checkEndpoint checks that the send or delivery (what) of message id, the
// event with the given seq on process proc, lies in the interval it names.
func (p *Pattern) checkEndpoint(what string, id int, proc ProcID, seq, interval int) error {
	cs := p.Checkpoints[proc]
	if interval < 1 {
		return fmt.Errorf("%w: %s of message %d has interval %d < 1", ErrInvalidPattern, what, id, interval)
	}
	if interval > len(cs) {
		return fmt.Errorf("%w: %s of message %d in interval %d but process %d has only %d checkpoints",
			ErrInvalidPattern, what, id, interval, proc, len(cs))
	}
	if seq <= cs[interval-1].Seq {
		return fmt.Errorf("%w: %s of message %d (seq %d) not after C{%d,%d} (seq %d)",
			ErrInvalidPattern, what, id, seq, proc, interval-1, cs[interval-1].Seq)
	}
	if interval < len(cs) && seq >= cs[interval].Seq {
		return fmt.Errorf("%w: %s of message %d (seq %d) not before C{%d,%d} (seq %d)",
			ErrInvalidPattern, what, id, seq, proc, interval, cs[interval].Seq)
	}
	return nil
}

// errNoProcesses, checkTDV and checkNotSelf are the checks Builder.Finalize
// shares with Validate: the only ones a builder's caller can fail.
var errNoProcesses = fmt.Errorf("%w: no processes", ErrInvalidPattern)

func (ck *Checkpoint) checkTDV(n int) error {
	if ck.TDV != nil && len(ck.TDV) != n {
		return fmt.Errorf("%w: checkpoint %v TDV has length %d, want %d", ErrInvalidPattern, ck.ID(), len(ck.TDV), n)
	}
	return nil
}

func (m *Message) checkNotSelf() error {
	if m.From == m.To {
		return fmt.Errorf("%w: message %d from process %d to itself", ErrInvalidPattern, m.ID, m.From)
	}
	return nil
}

func (p *Pattern) checkProc(i ProcID) error {
	if i < 0 || int(i) >= p.N {
		return fmt.Errorf("%w: process %d out of range [0,%d)", ErrInvalidPattern, i, p.N)
	}
	return nil
}
