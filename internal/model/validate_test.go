package model

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// validateBySort is the sort-based Validate the linear one replaced, kept
// as the oracle: it checks the same things in the same order, and finds a
// shared seq by sorting every endpoint by (process, seq).
func validateBySort(p *Pattern) error {
	if p.N <= 0 {
		return fmt.Errorf("%w: no processes", ErrInvalidPattern)
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
			if ck.TDV != nil && len(ck.TDV) != p.N {
				return fmt.Errorf("%w: checkpoint %v TDV has length %d, want %d", ErrInvalidPattern, ck.ID(), len(ck.TDV), p.N)
			}
		}
		if cs[0].Kind != KindInitial {
			return fmt.Errorf("%w: process %d first checkpoint has kind %v", ErrInvalidPattern, i, cs[0].Kind)
		}
	}

	seen := make(map[int]bool, len(p.Messages))
	type endpoint struct {
		proc     ProcID
		seq      int
		interval int
		what     string
		id       int
	}
	var eps []endpoint
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
		eps = append(eps,
			endpoint{proc: m.From, seq: m.SendSeq, interval: m.SendInterval, what: "send", id: m.ID},
			endpoint{proc: m.To, seq: m.DeliverSeq, interval: m.DeliverInterval, what: "delivery", id: m.ID},
		)
	}

	for _, ep := range eps {
		cs := p.Checkpoints[ep.proc]
		if ep.interval < 1 {
			return fmt.Errorf("%w: %s of message %d has interval %d < 1", ErrInvalidPattern, ep.what, ep.id, ep.interval)
		}
		if ep.interval > len(cs) {
			return fmt.Errorf("%w: %s of message %d in interval %d but process %d has only %d checkpoints",
				ErrInvalidPattern, ep.what, ep.id, ep.interval, ep.proc, len(cs))
		}
		if ep.seq <= cs[ep.interval-1].Seq {
			return fmt.Errorf("%w: %s of message %d (seq %d) not after C{%d,%d} (seq %d)",
				ErrInvalidPattern, ep.what, ep.id, ep.seq, ep.proc, ep.interval-1, cs[ep.interval-1].Seq)
		}
		if ep.interval < len(cs) && ep.seq >= cs[ep.interval].Seq {
			return fmt.Errorf("%w: %s of message %d (seq %d) not before C{%d,%d} (seq %d)",
				ErrInvalidPattern, ep.what, ep.id, ep.seq, ep.proc, ep.interval, cs[ep.interval].Seq)
		}
	}

	sort.Slice(eps, func(a, b int) bool {
		if eps[a].proc != eps[b].proc {
			return eps[a].proc < eps[b].proc
		}
		return eps[a].seq < eps[b].seq
	})
	for i := 1; i < len(eps); i++ {
		if eps[i].proc == eps[i-1].proc && eps[i].seq == eps[i-1].seq {
			return fmt.Errorf("%w: process %d has two events with seq %d", ErrInvalidPattern, eps[i].proc, eps[i].seq)
		}
	}
	return nil
}

// builderPattern records a random run of n processes: each step is a send
// (weight 0.48), the delivery of a random in-flight message (0.48) or a
// checkpoint of a random process.
func builderPattern(tb testing.TB, rng *rand.Rand, n, steps int) *Pattern {
	tb.Helper()
	b := NewBuilder(n)
	var inflight []int
	for s := 0; s < steps; s++ {
		switch r := rng.Float64(); {
		case r < 0.48:
			from := ProcID(rng.Intn(n))
			to := ProcID(rng.Intn(n - 1))
			if to >= from {
				to++
			}
			inflight = append(inflight, b.Send(from, to))
		case r < 0.96 && len(inflight) > 0:
			k := rng.Intn(len(inflight))
			if err := b.Deliver(inflight[k]); err != nil {
				tb.Fatal(err)
			}
			inflight[k] = inflight[len(inflight)-1]
			inflight = inflight[:len(inflight)-1]
		default:
			b.Checkpoint(ProcID(rng.Intn(n)), KindBasic, nil)
		}
	}
	for _, h := range inflight {
		if err := b.Deliver(h); err != nil {
			tb.Fatal(err)
		}
	}
	p, err := b.Finalize()
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// corrupt applies one random damage to p: a field of a message or a
// checkpoint set to a nearby, extreme or borrowed value, or a message
// duplicated.
func corrupt(rng *rand.Rand, p *Pattern) {
	near := func(v int) int { return v + rng.Intn(5) - 2 }
	m := &p.Messages[rng.Intn(len(p.Messages))]
	other := &p.Messages[rng.Intn(len(p.Messages))]
	switch rng.Intn(11) {
	case 0: // an event of the same process: the shared-seq branch
		if m.From == other.To {
			m.SendSeq = other.DeliverSeq
		} else if m.From == other.From {
			m.SendSeq = other.SendSeq
		}
	case 1:
		if m.To == other.From {
			m.DeliverSeq = other.SendSeq
		} else if m.To == other.To {
			m.DeliverSeq = other.DeliverSeq
		}
	case 2:
		m.SendSeq = near(m.SendSeq)
	case 3:
		m.DeliverSeq = near(m.DeliverSeq)
	case 4:
		m.SendInterval = near(m.SendInterval)
	case 5:
		m.DeliverInterval = near(m.DeliverInterval)
	case 6:
		m.From = ProcID(rng.Intn(p.N+2) - 1)
	case 7:
		m.To = ProcID(rng.Intn(p.N+2) - 1)
	case 8:
		m.ID = other.ID
	case 9:
		p.Messages = append(p.Messages, *m)
	case 10:
		cs := p.Checkpoints[rng.Intn(p.N)]
		cs[rng.Intn(len(cs))].Seq = near(cs[rng.Intn(len(cs))].Seq)
	}
}

// TestValidateMatchesSortOracle: over seeded random corruptions of
// builder-made patterns, Validate accepts exactly what the sort-based
// oracle accepts and otherwise returns the same error, word for word.
func TestValidateMatchesSortOracle(t *testing.T) {
	var rejected, shared int
	for seed := int64(1); seed <= 3000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := builderPattern(t, rng, 2+rng.Intn(4), 20+rng.Intn(60))
		if len(p.Messages) == 0 {
			continue
		}
		for k := rng.Intn(3); k >= 0; k-- {
			corrupt(rng, p)
		}
		got, want := p.Validate(), validateBySort(p)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d: Validate = %v, oracle = %v", seed, got, want)
		}
		if want != nil {
			rejected++
			if strings.Contains(want.Error(), "two events with seq") {
				shared++
			}
		}
	}
	// The corruptions must reach every branch, the shared seq included.
	if rejected < 1000 || shared < 100 {
		t.Fatalf("corruptions too tame: %d rejected, %d for a shared seq", rejected, shared)
	}
}

// shiftSeqs moves every seq of the pattern by d, which keeps it valid.
func shiftSeqs(p *Pattern, d int) {
	for _, cs := range p.Checkpoints {
		for x := range cs {
			cs[x].Seq += d
		}
	}
	for i := range p.Messages {
		p.Messages[i].SendSeq += d
		p.Messages[i].DeliverSeq += d
	}
}

// validateBytes is what one Validate of p allocates, on average.
func validateBytes(p *Pattern) uint64 {
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		_ = p.Validate()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestValidateExtremeSeqs: seqs near 1<<60 or below zero, as a trace file
// may carry, get the right verdict, and what Validate allocates depends on
// the pattern's size, not on its seq values.
func TestValidateExtremeSeqs(t *testing.T) {
	base := builderPattern(t, rand.New(rand.NewSource(5)), 4, 2000)
	baseBytes := validateBytes(base)
	// The endpoints, buckets and seen-set are a few words per message
	// and per checkpoint.
	limit := uint64(256*len(base.Messages) + 64*base.NumCheckpoints() + 4096)
	if baseBytes > limit {
		t.Fatalf("Validate allocates %d B for %d messages, over %d", baseBytes, len(base.Messages), limit)
	}
	for _, d := range []int{1 << 60, -1 << 60, -1000} {
		p := builderPattern(t, rand.New(rand.NewSource(5)), 4, 2000)
		shiftSeqs(p, d)
		if err := p.Validate(); err != nil {
			t.Fatalf("shift %d: valid pattern rejected: %v", d, err)
		}
		if got := validateBytes(p); got > baseBytes+baseBytes/8 {
			t.Errorf("shift %d: Validate allocates %d B, unshifted %d B", d, got, baseBytes)
		}
		// Two sends of one process in one interval, now at a shared seq.
		var a, b *Message
		last := make(map[ProcID]*Message)
		for i := range p.Messages {
			m := &p.Messages[i]
			if l := last[m.From]; l != nil && l.SendInterval == m.SendInterval {
				a, b = l, m
				break
			}
			last[m.From] = m
		}
		if b == nil {
			t.Fatalf("shift %d: no two sends share an interval", d)
		}
		b.SendSeq = a.SendSeq
		err := p.Validate()
		want := fmt.Sprintf("two events with seq %d", a.SendSeq)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("shift %d: Validate = %v, want %q", d, err, want)
		}
		if fmt.Sprint(err) != fmt.Sprint(validateBySort(p)) {
			t.Fatalf("shift %d: Validate = %v, oracle = %v", d, err, validateBySort(p))
		}
	}
}

// BenchmarkValidate validates a paper-scale pattern: 8 processes, about
// 8 k messages, a checkpoint every ~25 events of a process.
func BenchmarkValidate(b *testing.B) {
	p := builderPattern(b, rand.New(rand.NewSource(1)), 8, 17000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}
