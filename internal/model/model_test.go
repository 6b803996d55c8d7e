package model

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewBuilderCreatesInitialCheckpoints(t *testing.T) {
	b := NewBuilder(3)
	p, err := b.Finalize()
	if err != nil {
		t.Fatalf("finalize: %v", err)
	}
	if p.N != 3 {
		t.Fatalf("N = %d, want 3", p.N)
	}
	for i := 0; i < 3; i++ {
		cs := p.Checkpoints[i]
		if len(cs) != 1 {
			t.Fatalf("process %d has %d checkpoints, want 1", i, len(cs))
		}
		if cs[0].Kind != KindInitial || cs[0].Index != 0 {
			t.Errorf("process %d initial checkpoint = %+v", i, cs[0])
		}
	}
}

func TestBuilderRecordsIntervals(t *testing.T) {
	b := NewBuilder(2)
	m := b.Send(0, 1) // sent in I_{0,1}
	b.Checkpoint(0, KindBasic, nil)
	if err := b.Deliver(m); err != nil { // delivered in I_{1,1}
		t.Fatalf("deliver: %v", err)
	}
	b.Checkpoint(1, KindBasic, nil)
	p, err := b.Finalize()
	if err != nil {
		t.Fatalf("finalize: %v", err)
	}
	if len(p.Messages) != 1 {
		t.Fatalf("messages = %d, want 1", len(p.Messages))
	}
	msg := p.Messages[0]
	if msg.SendInterval != 1 || msg.DeliverInterval != 1 {
		t.Errorf("intervals = (%d,%d), want (1,1)", msg.SendInterval, msg.DeliverInterval)
	}
	if msg.From != 0 || msg.To != 1 {
		t.Errorf("endpoints = (%d,%d), want (0,1)", msg.From, msg.To)
	}
}

func TestBuilderFinalizeClosesOpenIntervals(t *testing.T) {
	b := NewBuilder(2)
	m := b.Send(0, 1)
	if err := b.Deliver(m); err != nil {
		t.Fatalf("deliver: %v", err)
	}
	p, err := b.Finalize()
	if err != nil {
		t.Fatalf("finalize: %v", err)
	}
	for i := 0; i < 2; i++ {
		cs := p.Checkpoints[i]
		last := cs[len(cs)-1]
		if last.Kind != KindFinal {
			t.Errorf("process %d last checkpoint kind = %v, want final", i, last.Kind)
		}
	}
}

func TestBuilderFinalizeRejectsInFlightMessages(t *testing.T) {
	b := NewBuilder(2)
	b.Send(0, 1)
	if _, err := b.Finalize(); err == nil {
		t.Fatal("finalize accepted an in-flight message")
	}
}

func TestBuilderDeliverUnknownHandle(t *testing.T) {
	b := NewBuilder(2)
	if err := b.Deliver(42); err == nil {
		t.Fatal("deliver accepted an unknown handle")
	}
	m := b.Send(0, 1)
	if err := b.Deliver(m); err != nil {
		t.Fatalf("deliver: %v", err)
	}
	if err := b.Deliver(m); err == nil {
		t.Fatal("deliver accepted a duplicate delivery")
	}
}

func TestBuilderEventsSinceCheckpoint(t *testing.T) {
	b := NewBuilder(2)
	if got := b.EventsSinceCheckpoint(0); got != 0 {
		t.Fatalf("events = %d, want 0", got)
	}
	m := b.Send(0, 1)
	if got := b.EventsSinceCheckpoint(0); got != 1 {
		t.Fatalf("events after send = %d, want 1", got)
	}
	if err := b.Deliver(m); err != nil {
		t.Fatalf("deliver: %v", err)
	}
	if got := b.EventsSinceCheckpoint(1); got != 1 {
		t.Fatalf("receiver events = %d, want 1", got)
	}
	b.Checkpoint(0, KindBasic, nil)
	if got := b.EventsSinceCheckpoint(0); got != 0 {
		t.Fatalf("events after checkpoint = %d, want 0", got)
	}
}

func TestBuilderCopiesTDV(t *testing.T) {
	b := NewBuilder(1)
	tdv := []int{7}
	b.Checkpoint(0, KindBasic, tdv)
	tdv[0] = 99
	p, err := b.Finalize()
	if err != nil {
		t.Fatalf("finalize: %v", err)
	}
	if got := p.Checkpoints[0][1].TDV[0]; got != 7 {
		t.Errorf("TDV was not copied: got %d, want 7", got)
	}
}

func TestValidateRejectsCorruptPatterns(t *testing.T) {
	// Messages[0] and [1] are sends of process 0 at seqs 1 and 2,
	// Messages[2] is delivered to process 0 at seq 3, all in I_{0,1}.
	valid := func() *Pattern {
		b := NewBuilder(2)
		m0 := b.Send(0, 1)
		m1 := b.Send(0, 1)
		m2 := b.Send(1, 0)
		for _, m := range []int{m2, m0, m1} {
			if err := b.Deliver(m); err != nil {
				t.Fatalf("deliver: %v", err)
			}
		}
		b.Checkpoint(0, KindBasic, nil)
		b.Checkpoint(1, KindBasic, nil)
		p, err := b.Finalize()
		if err != nil {
			t.Fatalf("finalize: %v", err)
		}
		return p
	}

	tests := []struct {
		name    string
		corrupt func(p *Pattern)
		want    string // a substring of the error, when the case pins one
	}{
		{"no processes", func(p *Pattern) { p.N = 0 }, ""},
		{"row mismatch", func(p *Pattern) { p.N = 3 }, ""},
		{"empty process", func(p *Pattern) { p.Checkpoints[0] = nil }, ""},
		{"bad index", func(p *Pattern) { p.Checkpoints[0][1].Index = 5 }, ""},
		{"bad proc", func(p *Pattern) { p.Checkpoints[0][1].Proc = 1 }, ""},
		{"non-increasing seq", func(p *Pattern) { p.Checkpoints[0][1].Seq = 0 }, ""},
		{"first not initial", func(p *Pattern) { p.Checkpoints[0][0].Kind = KindBasic }, ""},
		{"tdv length", func(p *Pattern) { p.Checkpoints[0][1].TDV = []int{1, 2, 3} }, ""},
		{"duplicate message id", func(p *Pattern) { p.Messages = append(p.Messages, p.Messages[0]) }, ""},
		{"message proc range", func(p *Pattern) { p.Messages[0].To = 9 }, ""},
		{"self message", func(p *Pattern) { p.Messages[0].To = p.Messages[0].From },
			"message 0 from process 0 to itself"},
		{"interval zero", func(p *Pattern) { p.Messages[0].SendInterval = 0 }, ""},
		{"interval beyond", func(p *Pattern) { p.Messages[0].DeliverInterval = 9 }, ""},
		{"send after interval checkpoint", func(p *Pattern) { p.Messages[0].SendSeq = 99 }, ""},
		{"two sends share a seq", func(p *Pattern) { p.Messages[1].SendSeq = 1 },
			"process 0 has two events with seq 1"},
		{"send and delivery share a seq", func(p *Pattern) { p.Messages[2].DeliverSeq = 2 },
			"process 0 has two events with seq 2"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := valid()
			if err := p.Validate(); err != nil {
				t.Fatalf("fixture invalid before corruption: %v", err)
			}
			tt.corrupt(p)
			err := p.Validate()
			if err == nil {
				t.Fatal("corrupted pattern passed validation")
			}
			if !errors.Is(err, ErrInvalidPattern) && !strings.Contains(err.Error(), "invalid pattern") {
				t.Errorf("error %v does not wrap ErrInvalidPattern", err)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not say %q", err, tt.want)
			}
		})
	}
}

func TestPatternStats(t *testing.T) {
	b := NewBuilder(2)
	m := b.Send(0, 1)
	b.Checkpoint(0, KindBasic, nil)
	if err := b.Deliver(m); err != nil {
		t.Fatalf("deliver: %v", err)
	}
	b.Checkpoint(1, KindForced, nil)
	p, err := b.Finalize()
	if err != nil {
		t.Fatalf("finalize: %v", err)
	}
	s := p.Stats()
	if s.Initial != 2 || s.Basic != 1 || s.Forced != 1 || s.Messages != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.Total() != s.Initial+s.Basic+s.Forced+s.Final {
		t.Errorf("total inconsistent: %+v", s)
	}
	if got := s.ForcedPerBasic(); got != 1 {
		t.Errorf("forced/basic = %v, want 1", got)
	}
	if got := s.ForcedPerMessage(); got != 1 {
		t.Errorf("forced/message = %v, want 1", got)
	}
}

func TestStatsZeroDenominators(t *testing.T) {
	var s Stats
	if s.ForcedPerBasic() != 0 || s.ForcedPerMessage() != 0 {
		t.Error("zero-denominator ratios should be 0")
	}
}

func TestCheckpointLookup(t *testing.T) {
	b := NewBuilder(2)
	b.Checkpoint(1, KindBasic, nil)
	p, err := b.Finalize()
	if err != nil {
		t.Fatalf("finalize: %v", err)
	}
	ck, err := p.Checkpoint(CkptID{Proc: 1, Index: 1})
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	if ck.Kind != KindBasic {
		t.Errorf("kind = %v, want basic", ck.Kind)
	}
	if _, err := p.Checkpoint(CkptID{Proc: 5, Index: 0}); err == nil {
		t.Error("lookup accepted out-of-range process")
	}
	if _, err := p.Checkpoint(CkptID{Proc: 0, Index: 7}); err == nil {
		t.Error("lookup accepted out-of-range index")
	}
}

func TestGlobalCheckpointOps(t *testing.T) {
	g := GlobalCheckpoint{1, 2, 3}
	clone := g.Clone()
	clone[0] = 9
	if g[0] != 1 {
		t.Error("clone aliases original")
	}
	if !g.Equal(GlobalCheckpoint{1, 2, 3}) {
		t.Error("Equal failed on equal values")
	}
	if g.Equal(GlobalCheckpoint{1, 2}) {
		t.Error("Equal ignored length")
	}
	if !g.DominatedBy(GlobalCheckpoint{1, 2, 4}) {
		t.Error("DominatedBy failed")
	}
	if g.DominatedBy(GlobalCheckpoint{0, 2, 4}) {
		t.Error("DominatedBy accepted a smaller entry")
	}
	if got := g.String(); got != "{1,2,3}" {
		t.Errorf("String = %q", got)
	}
}

func TestCkptIDString(t *testing.T) {
	id := CkptID{Proc: 2, Index: 5}
	if got := id.String(); got != "C{2,5}" {
		t.Errorf("String = %q", got)
	}
}

func TestCheckpointKindString(t *testing.T) {
	tests := []struct {
		kind CheckpointKind
		want string
	}{
		{KindInitial, "initial"},
		{KindBasic, "basic"},
		{KindForced, "forced"},
		{KindFinal, "final"},
		{CheckpointKind(42), "kind(42)"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", tt.kind, got, tt.want)
		}
	}
}

func TestDOTRendersAllCheckpointsAndMessages(t *testing.T) {
	b := NewBuilder(2)
	m := b.Send(0, 1)
	b.Checkpoint(0, KindBasic, nil)
	if err := b.Deliver(m); err != nil {
		t.Fatalf("deliver: %v", err)
	}
	p, err := b.Finalize()
	if err != nil {
		t.Fatalf("finalize: %v", err)
	}
	dot := p.DOT()
	for _, want := range []string{"digraph", "c0_0", "c0_1", "c1_0", "m0", "subgraph cluster_p1"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
}

func TestPrefix(t *testing.T) {
	b := NewBuilder(2)
	m1 := b.Send(0, 1)
	b.Checkpoint(0, KindBasic, []int{1, 0}) // C_{0,1}
	if err := b.Deliver(m1); err != nil {
		t.Fatalf("deliver: %v", err)
	}
	b.Checkpoint(1, KindBasic, nil) // C_{1,1}
	m2 := b.Send(1, 0)              // in transit at the cut {1,1}
	if err := b.Deliver(m2); err != nil {
		t.Fatalf("deliver: %v", err)
	}
	p, err := b.Finalize()
	if err != nil {
		t.Fatalf("finalize: %v", err)
	}

	pre, err := p.Prefix(GlobalCheckpoint{1, 1})
	if err != nil {
		t.Fatalf("prefix: %v", err)
	}
	if len(pre.Messages) != 1 || pre.Messages[0].ID != m1 {
		t.Errorf("prefix messages = %v, want only m1", pre.Messages)
	}
	if pre.LastIndex(0) != 1 || pre.LastIndex(1) != 1 {
		t.Errorf("prefix checkpoints truncated wrongly")
	}
	if pre.Checkpoints[0][1].TDV[0] != 1 {
		t.Error("prefix lost the TDV annotation")
	}
	// The prefix owns its TDV slices.
	pre.Checkpoints[0][1].TDV[0] = 9
	if p.Checkpoints[0][1].TDV[0] != 1 {
		t.Error("prefix aliases the original TDVs")
	}

	// An inconsistent cut is rejected: {0,1} makes m1 orphan.
	if _, err := p.Prefix(GlobalCheckpoint{0, 1}); err == nil {
		t.Error("inconsistent cut accepted")
	}
	if _, err := p.Prefix(GlobalCheckpoint{1}); err == nil {
		t.Error("short cut accepted")
	}
	if _, err := p.Prefix(GlobalCheckpoint{9, 1}); err == nil {
		t.Error("out-of-range cut accepted")
	}
}

func TestASCIIRendering(t *testing.T) {
	b := NewBuilder(2)
	m := b.Send(0, 1)
	b.Checkpoint(0, KindBasic, nil)
	if err := b.Deliver(m); err != nil {
		t.Fatalf("deliver: %v", err)
	}
	p, err := b.Finalize()
	if err != nil {
		t.Fatalf("finalize: %v", err)
	}
	art := p.ASCII()
	lines := strings.Split(strings.TrimRight(art, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lanes = %d, want 2:\n%s", len(lines), art)
	}
	if !strings.HasPrefix(lines[0], "P0") || !strings.HasPrefix(lines[1], "P1") {
		t.Errorf("lane labels wrong:\n%s", art)
	}
	for _, want := range []string{"s0", "d0", "[0]", "[1]"} {
		if !strings.Contains(art, want) {
			t.Errorf("diagram missing %q:\n%s", want, art)
		}
	}
	// The send column must precede the delivery column.
	if strings.Index(lines[0], "s0") > strings.Index(lines[1], "d0") {
		t.Errorf("send rendered after delivery:\n%s", art)
	}
	// All lanes have equal width.
	if len(lines[0]) != len(lines[1]) {
		t.Errorf("ragged lanes:\n%s", art)
	}
}

// TestQuickBuilderAlwaysProducesValidPatterns drives the builder with
// random operation sequences (testing/quick supplies the seeds): whatever
// the interleaving, a drained, finalized builder yields a pattern that
// passes validation.
func TestQuickBuilderAlwaysProducesValidPatterns(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		b := NewBuilder(n)
		var inflight []int
		for e := 0; e < 30+rng.Intn(40); e++ {
			switch r := rng.Float64(); {
			case r < 0.4:
				from := ProcID(rng.Intn(n))
				to := ProcID(rng.Intn(n - 1))
				if to >= from {
					to++
				}
				inflight = append(inflight, b.Send(from, to))
			case r < 0.75 && len(inflight) > 0:
				k := rng.Intn(len(inflight))
				if err := b.Deliver(inflight[k]); err != nil {
					t.Logf("deliver: %v", err)
					return false
				}
				inflight = append(inflight[:k], inflight[k+1:]...)
			default:
				b.Checkpoint(ProcID(rng.Intn(n)), KindBasic, nil)
			}
		}
		for _, h := range inflight {
			if err := b.Deliver(h); err != nil {
				t.Logf("drain: %v", err)
				return false
			}
		}
		p, err := b.Finalize()
		if err != nil {
			t.Logf("finalize: %v", err)
			return false
		}
		return p.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSmallAccessors(t *testing.T) {
	b := NewBuilder(2)
	if b.N() != 2 {
		t.Errorf("builder N = %d", b.N())
	}
	m := b.Send(0, 1)
	if b.InFlight() != 1 {
		t.Errorf("in flight = %d", b.InFlight())
	}
	if b.NextMessageID() != 1 {
		t.Errorf("next id = %d", b.NextMessageID())
	}
	if err := b.Deliver(m); err != nil {
		t.Fatalf("deliver: %v", err)
	}
	p, err := b.Finalize()
	if err != nil {
		t.Fatalf("finalize: %v", err)
	}
	if p.NumCheckpoints() != 4 { // 2 initial + 2 final
		t.Errorf("checkpoints = %d", p.NumCheckpoints())
	}
	msg := p.Messages[0]
	if got := msg.String(); !strings.Contains(got, "m0") || !strings.Contains(got, "P0[I1] -> P1[I1]") {
		t.Errorf("message string = %q", got)
	}
}

func TestBuilderSnapshotLeavesBuilderOpen(t *testing.T) {
	b := NewBuilder(2)
	m1 := b.Send(0, 1)
	if err := b.Deliver(m1); err != nil {
		t.Fatal(err)
	}
	b.Checkpoint(1, KindBasic, nil)
	m2 := b.Send(1, 0) // still in flight at the snapshot

	snap, lost, err := b.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if len(lost) != 1 || lost[0].ID != m2 {
		t.Fatalf("snapshot lost = %v, want just message %d", lost, m2)
	}
	if len(snap.Messages) != 1 {
		t.Fatalf("snapshot has %d messages, want 1 (the delivered one)", len(snap.Messages))
	}
	// The snapshot closed P0's interval (it delivered m1); the live
	// builder must still be open and able to finish the run.
	if got := snap.CountKind(KindFinal); got != 2 {
		t.Fatalf("snapshot has %d final checkpoints, want 2 (both have events)", got)
	}
	if err := b.Deliver(m2); err != nil {
		t.Fatalf("deliver on the live builder after snapshot: %v", err)
	}
	p, err := b.Finalize()
	if err != nil {
		t.Fatalf("finalize after snapshot: %v", err)
	}
	if len(p.Messages) != 2 {
		t.Fatalf("final pattern has %d messages, want 2", len(p.Messages))
	}
	if snap.NumCheckpoints() == p.NumCheckpoints() && len(snap.Messages) == len(p.Messages) {
		t.Fatal("snapshot aliases the live builder")
	}
}

func TestBuilderCloneIsIndependent(t *testing.T) {
	b := NewBuilder(2)
	b.Checkpoint(1, KindBasic, []int{0, 1}) // b has a vector chunk
	m := b.Send(0, 1)
	c := b.Clone()
	if err := c.Deliver(m); err != nil {
		t.Fatalf("deliver on clone: %v", err)
	}
	c.Checkpoint(0, KindBasic, []int{9, 9})
	// Each copies later vectors into a chunk of its own.
	b.Checkpoint(1, KindBasic, []int{0, 2})
	if got := c.ckpts[0][1].TDV; !slices.Equal(got, []int{9, 9}) {
		t.Fatalf("clone's C{0,1} TDV = %v after the original checkpointed, want [9 9]", got)
	}
	// The original must still see m in flight and only initial checkpoints.
	if b.InFlight() != 1 {
		t.Fatalf("original in-flight = %d after mutating the clone, want 1", b.InFlight())
	}
	if b.NextIndex(0) != 1 {
		t.Fatalf("original next index = %d after clone checkpointed, want 1", b.NextIndex(0))
	}
	if got := b.ckpts[1][2].TDV; !slices.Equal(got, []int{0, 2}) {
		t.Fatalf("original's C{1,2} TDV = %v, want [0 2]", got)
	}
	if err := b.Deliver(m); err != nil {
		t.Fatalf("deliver on original: %v", err)
	}
}

// TestBuilderChunkNeverRewinds: Checkpoint copies each vector into a
// piece of the builder's chunk, and a piece is handed out once. A
// pattern finalized before a Reset keeps its vectors while the builder
// records other executions, of the same size and of another, and the
// caller may write the vector it passed in.
func TestBuilderChunkNeverRewinds(t *testing.T) {
	const n = 3
	record := func(b *Builder, base int) *Pattern {
		t.Helper()
		tdv := make([]int, b.N())
		for x := 1; x <= 2*tdvChunkCopies; x++ { // more than one chunk
			for i := range tdv {
				tdv[i] = base + x + i
			}
			b.Checkpoint(ProcID(x%b.N()), KindBasic, tdv)
			tdv[0] = -1 // the builder holds a copy
		}
		p, err := b.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	vectors := func(p *Pattern) (out [][]int) {
		for _, cs := range p.Checkpoints {
			for _, ck := range cs {
				out = append(out, slices.Clone(ck.TDV))
			}
		}
		return out
	}
	b := NewBuilder(n)
	kept := record(b, 0)
	want := vectors(kept)
	for round, size := range []int{n, n, 2, 5, n} {
		b.Reset(size)
		record(b, 1000*(round+1))
		if !reflect.DeepEqual(vectors(kept), want) {
			t.Fatalf("round %d (n=%d): a pattern finalized before Reset changed", round, size)
		}
	}
	if x := kept.Checkpoints[1][1].TDV; x[0] != 1 || x[1] != 2 || x[2] != 3 {
		t.Errorf("C{1,1} TDV = %v, want [1 2 3]", x)
	}
}
