package model

import (
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
	if p.N <= 0 {
		return errNoProcesses
	}
	if len(p.Checkpoints) != p.N {
		return fmt.Errorf("%w: %d checkpoint rows for %d processes", ErrInvalidPattern, len(p.Checkpoints), p.N)
	}
	for i, cs := range p.Checkpoints {
		if len(cs) == 0 {
			return fmt.Errorf("%w: process %d has no checkpoints", ErrInvalidPattern, i)
		}
		for x := range cs {
			ck := &cs[x]
			if int(ck.Proc) != i {
				return fmt.Errorf("%w: checkpoint %v stored under process %d", ErrInvalidPattern, ck.ID(), i)
			}
			if ck.Index != x {
				return fmt.Errorf("%w: process %d checkpoint %d has index %d", ErrInvalidPattern, i, x, ck.Index)
			}
			if x > 0 && ck.Seq <= cs[x-1].Seq {
				return fmt.Errorf("%w: process %d checkpoints %d,%d have non-increasing seq", ErrInvalidPattern, i, x-1, x)
			}
			if err := ck.checkTDV(p.N); err != nil {
				return err
			}
		}
		if cs[0].Kind != KindInitial {
			return fmt.Errorf("%w: process %d first checkpoint has kind %v", ErrInvalidPattern, i, cs[0].Kind)
		}
	}

	seen := make(map[int]bool, len(p.Messages))
	for i := range p.Messages {
		m := &p.Messages[i]
		if seen[m.ID] {
			return fmt.Errorf("%w: duplicate message id %d", ErrInvalidPattern, m.ID)
		}
		seen[m.ID] = true
		if err := p.checkProc(m.From); err != nil {
			return fmt.Errorf("message %d from: %w", m.ID, err)
		}
		if err := p.checkProc(m.To); err != nil {
			return fmt.Errorf("message %d to: %w", m.ID, err)
		}
		if err := m.checkNotSelf(); err != nil {
			return err
		}
	}

	// Once its interval is checked, an endpoint lies strictly between the
	// checkpoints that delimit that interval, and checkpoint seqs increase,
	// so a process's intervals split its endpoints in seq order: two can
	// share a seq only inside one interval. A counting sort groups the
	// seqs into bucket b = first[i]+x-1 per interval I_{i,x}: end[b+1]
	// counts bucket b, the prefix sums turn end[b] into its start, and
	// placing advances end[b] to its end. No allocation depends on a Seq
	// value.
	first := make([]int, p.N+1)
	for i, cs := range p.Checkpoints {
		first[i+1] = first[i] + len(cs)
	}
	end := make([]int, first[p.N]+1)
	for i := range p.Messages {
		m := &p.Messages[i]
		if err := p.checkEndpoint("send", m.ID, m.From, m.SendSeq, m.SendInterval); err != nil {
			return err
		}
		if err := p.checkEndpoint("delivery", m.ID, m.To, m.DeliverSeq, m.DeliverInterval); err != nil {
			return err
		}
		end[first[m.From]+m.SendInterval]++
		end[first[m.To]+m.DeliverInterval]++
	}
	for b := 1; b < len(end); b++ {
		end[b] += end[b-1]
	}
	seqs := make([]int, 2*len(p.Messages))
	for i := range p.Messages {
		m := &p.Messages[i]
		b := first[m.From] + m.SendInterval - 1
		seqs[end[b]] = m.SendSeq
		end[b]++
		b = first[m.To] + m.DeliverInterval - 1
		seqs[end[b]] = m.DeliverSeq
		end[b]++
	}

	// Sequence numbers must be unique per process across all event types.
	// Buckets run in (process, seq) order, so the duplicate reported is the
	// lowest one of the lowest process that has one.
	lo := 0
	for i := 0; i < p.N; i++ {
		for b := first[i]; b < first[i+1]; b++ {
			bucket := seqs[lo:end[b]]
			lo = end[b]
			slices.Sort(bucket)
			for k := 1; k < len(bucket); k++ {
				if bucket[k] == bucket[k-1] {
					return fmt.Errorf("%w: process %d has two events with seq %d", ErrInvalidPattern, i, bucket[k])
				}
			}
		}
	}
	return nil
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
