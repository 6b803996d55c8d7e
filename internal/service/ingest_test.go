package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/rdt-go/rdt/internal/obs"
)

// TestDecodeEventsPooledReuse exercises the dirty-scratch hazard: a
// recycled batch slice must not leak the previous request's field
// values into events whose JSON omits them (omitempty peers and ids).
func TestDecodeEventsPooledReuse(t *testing.T) {
	first := `[{"op":"send","proc":3,"peer":2,"msg":9},{"op":"send","proc":2,"peer":3,"msg":10}]`
	events, release, err := DecodeEventsPooled(strings.NewReader(first), 16)
	if err != nil {
		t.Fatalf("decode first: %v", err)
	}
	if len(events) != 2 || events[1].Peer != 3 {
		t.Fatalf("first decode: %+v", events)
	}
	release()
	release() // idempotent

	// Same pool, a body whose events omit peer/msg/kind entirely.
	second := `[{"op":"checkpoint","proc":0},{"op":"checkpoint","proc":1}]`
	for i := 0; i < 8; i++ { // pools are probabilistic; hammer it
		events, release, err = DecodeEventsPooled(strings.NewReader(second), 16)
		if err != nil {
			t.Fatalf("decode second: %v", err)
		}
		for j, ev := range events {
			if ev.Peer != 0 || ev.Msg != 0 || ev.Kind != "" {
				t.Fatalf("round %d event %d inherited stale fields: %+v", i, j, ev)
			}
		}
		release()
	}
}

// jsonBody is a JSON ingest body of n events of 8 processes.
func jsonBody(t testing.TB, n int) []byte {
	body, err := json.Marshal(genWorkload(rand.New(rand.NewSource(int64(n))), 8, n))
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestJSONDecodeAllocBudget pins the pooled JSON path's allocations: the
// scanner interns op and kind and parses ids in place, and the body,
// batch and encoding buffers are recycled, so a 64-event batch costs
// what the call does — the release closure and its sync.Once — and
// nothing per event. A lost pool costs at least three more.
func TestJSONDecodeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; alloc counts are noise there")
	}
	raw := jsonBody(t, 64)
	r := bytes.NewReader(raw)
	// Warm the pool so steady state is measured.
	if _, release, err := DecodeEventsPooled(r, 128); err != nil {
		t.Fatalf("warmup: %v", err)
	} else {
		release()
	}
	avg := testing.AllocsPerRun(200, func() {
		r.Reset(raw)
		events, release, err := DecodeEventsPooled(r, 128)
		if err != nil || len(events) != 64 {
			t.Fatalf("decode: %d events, %v", len(events), err)
		}
		release()
	})
	if avg > 4 {
		t.Fatalf("pooled JSON decode costs %.1f allocs for 64 events, budget 4", avg)
	}
}

// TestIngestHandlerAllocs: one POST of events through the ingest handler
// costs as many allocations for 128 events as for 8 — the request, the
// response and the batch's record, never a share per event. The
// session's worker is parked, so only the handler is counted.
func TestIngestHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; alloc counts are noise there")
	}
	svc, _ := testService(t, Config{})
	sess := mustCreate(t, svc, "allocs", 8)
	gate := make(chan struct{})
	defer close(gate)
	if err := sess.enqueue(batch{gate: gate}); err != nil {
		t.Fatalf("gate batch: %v", err)
	}
	waitFor(t, func() bool { return len(sess.queue) == 0 })
	h := NewHandler(svc)
	allocs := func(events int) float64 {
		body := jsonBody(t, events)
		return testing.AllocsPerRun(100, func() {
			req := httptest.NewRequest(http.MethodPost, "/v1/sessions/allocs/events", bytes.NewReader(body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusAccepted {
				t.Fatalf("POST %d events: %d %s", events, w.Code, w.Body)
			}
		})
	}
	small, large := allocs(8), allocs(128)
	if large > small {
		t.Fatalf("ingest costs %.1f allocs for 8 events and %.1f for 128: it grows with the batch", small, large)
	}
	t.Logf("ingest costs %.1f allocs for 8 events, %.1f for 128", small, large)
}

// TestIngestRejectionsUnchanged: for bodies the ingest handler refuses,
// the handler answers with the status, and counts the refused events
// under the reasons, that the handler before the scanner did when fed by
// the encoding/json oracle and Enqueue (oracleIngest).
func TestIngestRejectionsUnchanged(t *testing.T) {
	type side struct {
		reg *obs.Registry
		h   http.Handler
	}
	var sides [2]side
	for i := range sides {
		svc, reg := testService(t, Config{})
		mustCreate(t, svc, "s", 2)
		sealed := mustCreate(t, svc, "sealed", 2)
		if err := sealed.Seal(context.Background()); err != nil {
			t.Fatalf("seal: %v", err)
		}
		h := NewHandler(svc)
		if i == 1 {
			mux := http.NewServeMux()
			mux.HandleFunc("POST /v1/sessions/{id}/events", (&api{svc: svc}).oracleIngest)
			h = mux
		}
		sides[i] = side{reg, h}
	}
	checkpoints := func(n int) string {
		return "[" + strings.TrimSuffix(strings.Repeat(`{"op":"checkpoint","proc":0},`, n), ",") + "]"
	}
	// Past DefaultMaxBody with a single event, so the body limit and not
	// the batch limit refuses it however far the decoder reads.
	oversize := strings.Repeat(" ", DefaultMaxBody) + checkpoints(1)
	for _, tc := range []struct {
		name, session, body string
		undeclared          bool // no Content-Length: MaxBytesReader finds the oversize
	}{
		{"syntax", "s", `[{"op":"checkpoint",`, false},
		{"type", "s", `{"op":"checkpoint","proc":"1"}`, false},
		{"empty", "s", ``, false},
		{"blank", "s", " \n\t", false},
		{"empty batch", "s", `[]`, false},
		{"over DefaultMaxBatch", "s", checkpoints(DefaultMaxBatch + 1), false},
		{"over DefaultMaxBody", "s", oversize, false},
		{"over DefaultMaxBody undeclared", "s", oversize, true},
		{"bad kind", "s", `{"op":"checkpoint","proc":0,"kind":"initial"}`, false},
		{"bad op in a batch", "s", `[{"op":"checkpoint","proc":0},{"op":"reset","proc":0}]`, false},
		{"negative id", "s", `{"op":"send","proc":0,"peer":1,"msg":-1}`, false},
		{"sealed session", "sealed", checkpoints(3), false},
		{"unknown session", "nobody", checkpoints(1), false},
		{"accepted", "s", checkpoints(4), false},
	} {
		var status [2]int
		var deltas [2]map[string]int64
		for i, sd := range sides {
			before := rejections(sd.reg)
			req := httptest.NewRequest(http.MethodPost, "/v1/sessions/"+tc.session+"/events", strings.NewReader(tc.body))
			if tc.undeclared {
				req.ContentLength = -1
			}
			w := httptest.NewRecorder()
			sd.h.ServeHTTP(w, req)
			status[i], deltas[i] = w.Code, rejections(sd.reg)
			for reason, n := range before {
				deltas[i][reason] -= n
			}
		}
		if status[0] != status[1] || !reflect.DeepEqual(deltas[0], deltas[1]) {
			t.Errorf("%s: status %d, rejected %v; the oracle's handler: %d, %v",
				tc.name, status[0], deltas[0], status[1], deltas[1])
		}
	}
}

// rejections reads rdt_service_events_rejected_total by reason.
func rejections(reg *obs.Registry) map[string]int64 {
	snap := reg.Snapshot()
	out := make(map[string]int64)
	for _, reason := range []string{reasonInvalid, reasonBackpressure, reasonSealed, reasonFailed, reasonDegraded} {
		out[reason] = snap.CounterValue("rdt_service_events_rejected_total", "reason", reason)
	}
	return out
}

func TestIngestBodyLimit(t *testing.T) {
	c, svc, _ := newTestServer(t, Config{})
	c.expect("POST", "/v1/sessions", createRequest{ID: "big", N: 2}, http.StatusCreated, nil)

	// An honest oversized body: rejected up front via Content-Length,
	// before a byte of it is read. (In process: over a real connection
	// the server's close after an unread body lingers for half a second.)
	req := httptest.NewRequest(http.MethodPost, "/v1/sessions/big/events", strings.NewReader(strings.Repeat(" ", DefaultMaxBody+1)))
	w := httptest.NewRecorder()
	NewHandler(svc).ServeHTTP(w, req)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", w.Code)
	}

	// A body under the limit still ingests.
	c.expect("POST", "/v1/sessions/big/events", []Event{{Op: OpCheckpoint, Proc: 0}}, http.StatusAccepted, nil)

	// A reader that exceeds the limit without declaring it (chunked
	// transfer) is caught by MaxBytesReader mid-read.
	events, _, err := DecodeEventsPooled(http.MaxBytesReader(nil,
		readCloser{strings.NewReader(strings.Repeat(" ", DefaultMaxBody) + `{"op":"checkpoint","proc":0}`)}, DefaultMaxBody), DefaultMaxBatch)
	var tooBig *http.MaxBytesError
	if !errors.As(err, &tooBig) {
		t.Fatalf("undeclared oversize: events=%v err=%v, want MaxBytesError", events, err)
	}
}

type readCloser struct{ *strings.Reader }

func (readCloser) Close() error { return nil }

func TestEnqueueSeqDedupAndGaps(t *testing.T) {
	svc, _ := testService(t, Config{})
	sess, err := svc.CreateSession("s", 2)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	ck := []Event{{Op: OpCheckpoint, Proc: 0}}

	if dup, err := sess.EnqueueSeq("p", 1, ck, false, nil); dup || err != nil {
		t.Fatalf("seq 1: dup=%v err=%v", dup, err)
	}
	// Replays of an accepted frame are duplicates, regardless of content.
	if dup, err := sess.EnqueueSeq("p", 1, nil, false, nil); !dup || err != nil {
		t.Fatalf("seq 1 replay: dup=%v err=%v", dup, err)
	}
	// Skipping ahead is a protocol violation.
	if _, err := sess.EnqueueSeq("p", 3, ck, false, nil); !errors.Is(err, ErrSeqGap) {
		t.Fatalf("seq 3: %v, want ErrSeqGap", err)
	}
	// Producers number independently.
	if dup, err := sess.EnqueueSeq("q", 1, ck, false, nil); dup || err != nil {
		t.Fatalf("producer q seq 1: dup=%v err=%v", dup, err)
	}
	if got := sess.ProducerSeq("p"); got != 1 {
		t.Fatalf("ProducerSeq(p) = %d, want 1", got)
	}
	if got := sess.ProducerSeq("nobody"); got != 0 {
		t.Fatalf("ProducerSeq(nobody) = %d, want 0", got)
	}

	// A rejected frame must not advance the sequence: park the worker,
	// fill the queue, and watch a backpressured frame retry cleanly.
	gate := make(chan struct{})
	svc2, _ := testService(t, Config{})
	s2, err := svc2.CreateSession("s2", 2)
	if err != nil {
		t.Fatalf("create s2: %v", err)
	}
	if err := s2.enqueue(batch{gate: gate}); err != nil {
		t.Fatalf("gate batch: %v", err)
	}
	waitFor(t, func() bool { return len(s2.queue) == 0 })
	const full = DefaultQueueDepth
	for seq := uint64(1); seq <= full; seq++ { // fills every slot
		if _, err := s2.EnqueueSeq("p", seq, ck, false, nil); err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
	}
	if _, err := s2.EnqueueSeq("p", full+1, ck, false, nil); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("seq %d against a full queue: %v, want ErrBackpressure", full+1, err)
	}
	if got := s2.ProducerSeq("p"); got != full {
		t.Fatalf("backpressured frame advanced seq to %d", got)
	}
	close(gate)
	if dup, err := retrySeq(s2, "p", full+1, ck); dup || err != nil {
		t.Fatalf("seq %d retry: dup=%v err=%v", full+1, dup, err)
	}
}

func retrySeq(s *Session, producer string, seq uint64, events []Event) (bool, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		dup, err := s.EnqueueSeq(producer, seq, events, false, nil)
		if !errors.Is(err, ErrBackpressure) || time.Now().After(deadline) {
			return dup, err
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEnqueueNotifyOrdering pins the barrier trick the stream layer's
// duplicate re-acks rely on: a nil-events notify enqueued after a
// mutating batch fires after that batch has been applied.
func TestEnqueueNotifyOrdering(t *testing.T) {
	svc, _ := testService(t, Config{})
	sess, err := svc.CreateSession("s", 2)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	var mu sync.Mutex
	var order []string
	note := func(tag string) func(error) {
		return func(error) {
			mu.Lock()
			order = append(order, tag)
			mu.Unlock()
		}
	}
	if _, err := sess.EnqueueSeq("p", 1, []Event{{Op: OpCheckpoint, Proc: 0}}, false, note("events")); err != nil {
		t.Fatalf("events: %v", err)
	}
	if err := sess.EnqueueNotify(nil, note("barrier")); err != nil {
		t.Fatalf("barrier: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := sess.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "events" || order[1] != "barrier" {
		t.Fatalf("notify order %v, want [events barrier]", order)
	}
	if v := sess.Verdict(0); v.EventsApplied != 1 {
		t.Fatalf("applied %d, want 1", v.EventsApplied)
	}
}
