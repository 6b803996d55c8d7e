package obs

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// TestTracerWraparound fills a small ring past capacity and checks that
// the tail holds the most recent events, oldest first, with contiguous
// logical timestamps.
func TestTracerWraparound(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Record(Event{Type: EventSend, Proc: i})
	}
	if got := tr.Len(); got != 4 {
		t.Errorf("Len = %d, want 4", got)
	}
	if got := tr.Seq(); got != 10 {
		t.Errorf("Seq = %d, want 10", got)
	}
	tail := tr.Tail(0)
	if len(tail) != 4 {
		t.Fatalf("Tail(0) returned %d events, want 4", len(tail))
	}
	for i, ev := range tail {
		wantSeq := uint64(7 + i)
		if ev.Seq != wantSeq || ev.Proc != int(wantSeq)-1 {
			t.Errorf("tail[%d] = seq %d proc %d, want seq %d proc %d",
				i, ev.Seq, ev.Proc, wantSeq, wantSeq-1)
		}
	}
	// A bounded tail returns the newest n.
	short := tr.Tail(2)
	if len(short) != 2 || short[0].Seq != 9 || short[1].Seq != 10 {
		t.Errorf("Tail(2) = %+v, want seqs 9,10", short)
	}
	// Asking for more than retained returns everything.
	if got := tr.Tail(100); len(got) != 4 {
		t.Errorf("Tail(100) returned %d events, want 4", len(got))
	}
}

// TestTracerBeforeWrap covers the partially filled ring.
func TestTracerBeforeWrap(t *testing.T) {
	tr := NewTracer(8)
	tr.Record(Event{Type: EventBasicCheckpoint, Proc: 1})
	tr.Record(Event{Type: EventForcedCheckpoint, Proc: 2, Predicate: "C1"})
	tail := tr.Tail(0)
	if len(tail) != 2 {
		t.Fatalf("Tail = %d events, want 2", len(tail))
	}
	if tail[0].Seq != 1 || tail[1].Seq != 2 || tail[1].Predicate != "C1" {
		t.Errorf("tail = %+v", tail)
	}
}

// TestTracerConcurrent records from many goroutines; with -race this
// verifies the ring's synchronization. Every retained event must have a
// unique seq.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(64)
	var wg sync.WaitGroup
	const workers, per = 8, 100
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Record(Event{Type: EventDeliver, Proc: w, Peer: i})
			}
		}(w)
	}
	wg.Wait()
	if got := tr.Seq(); got != workers*per {
		t.Errorf("Seq = %d, want %d", got, workers*per)
	}
	seen := make(map[uint64]bool)
	for _, ev := range tr.Tail(0) {
		if seen[ev.Seq] {
			t.Errorf("duplicate seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
	}
	if len(seen) != 64 {
		t.Errorf("retained %d events, want 64", len(seen))
	}
}

// TestTracerRecordNMatchesRecord: one RecordN of n events leaves the
// ring, Seq, Dropped and the drops counter exactly as n Records do —
// into free slots, across the wrap, and when the call overwrites its own
// first events, which it then never fills.
func TestTracerRecordNMatchesRecord(t *testing.T) {
	for _, tc := range []struct{ capacity, before, n int }{
		{8, 0, 0}, {8, 0, 3}, {8, 6, 5}, {8, 8, 1}, {8, 3, 8}, {8, 2, 21}, {1, 0, 4}, {1, 3, 1},
	} {
		one, many := NewTracer(tc.capacity), NewTracer(tc.capacity)
		oneReg, manyReg := NewRegistry(), NewRegistry()
		one.ObserveDrops(oneReg)
		many.ObserveDrops(manyReg)
		for i := 0; i < tc.before; i++ {
			one.Record(Event{Type: EventSend, Proc: i})
			many.Record(Event{Type: EventSend, Proc: i})
		}
		for i := 0; i < tc.n; i++ {
			one.Record(Event{Type: EventDeliver, Proc: i, Value: 7})
		}
		filled := 0
		many.RecordN(tc.n, func(i int, slots []Event) {
			for k := range slots {
				filled++
				slots[k] = Event{Seq: 99, Type: EventDeliver, Proc: i + k, Value: 7}
			}
		})
		drops := func(reg *Registry) int64 { return reg.Snapshot().CounterValue("rdt_obs_events_dropped_total") }
		if !reflect.DeepEqual(one.Tail(0), many.Tail(0)) || one.Seq() != many.Seq() ||
			one.Dropped() != many.Dropped() || drops(oneReg) != drops(manyReg) {
			t.Errorf("%+v: RecordN left tail %+v seq %d dropped %d (counter %d), Record %+v seq %d dropped %d (counter %d)",
				tc, many.Tail(0), many.Seq(), many.Dropped(), drops(manyReg), one.Tail(0), one.Seq(), one.Dropped(), drops(oneReg))
		}
		if filled != min(tc.n, tc.capacity) {
			t.Errorf("%+v: filled %d slots, want %d", tc, filled, min(tc.n, tc.capacity))
		}
	}
}

// TestTracerFormatsOnRead: an event recorded with a Format is stored as
// fields and comes out of Tail with its Detail rendered, without the
// Format, and its JSON carries neither Target nor Format.
func TestTracerFormatsOnRead(t *testing.T) {
	tr := NewTracer(4)
	calls := 0
	format := func(ev Event) string {
		calls++
		return fmt.Sprintf("%d.%d-%d.%d", ev.Proc, ev.Value, ev.Peer, ev.Target)
	}
	tr.Record(Event{Type: EventViolation, Proc: 1, Value: 2, Peer: 3, Target: 4, Format: format})
	if calls != 0 {
		t.Fatalf("Record formatted the event %d times", calls)
	}
	tail := tr.Tail(0)
	if len(tail) != 1 || tail[0].Detail != "1.2-3.4" || tail[0].Format != nil {
		t.Fatalf("tail = %+v", tail)
	}
	data, err := json.Marshal(tail[0])
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"seq":1,"type":"violation","proc":1,"peer":3,"detail":"1.2-3.4","value":2}`; string(data) != want {
		t.Fatalf("JSON %s, want %s", data, want)
	}
}

func TestEventTypeStrings(t *testing.T) {
	want := map[EventType]string{
		EventSend:             "send",
		EventDeliver:          "deliver",
		EventBasicCheckpoint:  "basic-checkpoint",
		EventForcedCheckpoint: "forced-checkpoint",
		EventRollback:         "rollback",
		EventSendError:        "send-error",
		EventType(99):         "event(99)",
	}
	for typ, name := range want {
		if got := typ.String(); got != name {
			t.Errorf("%d.String() = %q, want %q", typ, got, name)
		}
	}
}

func TestTracerDropAccounting(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(4)
	tr.ObserveDrops(reg)
	for i := 0; i < 4; i++ {
		tr.Record(Event{Type: EventSend, Proc: i})
	}
	if tr.Dropped() != 0 {
		t.Fatalf("dropped %d before overflow", tr.Dropped())
	}
	for i := 0; i < 10; i++ {
		tr.Record(Event{Type: EventDeliver, Proc: i})
	}
	if got := tr.Dropped(); got != 10 {
		t.Fatalf("dropped %d events, want 10", got)
	}
	if got := reg.Snapshot().CounterValue("rdt_obs_events_dropped_total"); got != 10 {
		t.Fatalf("rdt_obs_events_dropped_total = %d, want 10", got)
	}
	// The ring still holds the newest 4 events, gapless.
	tail := tr.Tail(0)
	if len(tail) != 4 || tail[0].Seq != 11 || tail[3].Seq != 14 {
		t.Fatalf("tail after overflow: %+v", tail)
	}
	// Nil tracer: everything is a no-op.
	var nilTr *Tracer
	nilTr.ObserveDrops(reg)
	nilTr.Record(Event{})
	if nilTr.Dropped() != 0 {
		t.Fatalf("nil tracer dropped %d", nilTr.Dropped())
	}
}
