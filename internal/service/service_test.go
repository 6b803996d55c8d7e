package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/obs"
	"github.com/rdt-go/rdt/internal/rgraph"
	"github.com/rdt-go/rdt/internal/trace"
	"github.com/rdt-go/rdt/internal/vtime"
)

// TestDecodeEvents is the JSON ingest decoder's compatibility table: one
// row per rule of encoding/json's that the scanner keeps. Each row's
// outcome is the oracle's (the encoding/json decoder the scanner
// replaced), and the scanner must agree with it on the events and the
// record as well.
func TestDecodeEvents(t *testing.T) {
	cases := []struct {
		name string
		body string
		want int // events decoded; 0 for a refusal
	}{
		{"single object", `{"op":"checkpoint","proc":1}`, 1},
		{"single send", `{"op":"send","proc":0,"peer":1,"msg":7}`, 1},
		{"array", `[{"op":"send","proc":0,"peer":1,"msg":0},{"op":"deliver","msg":0,"proc":1}]`, 2},
		{"forced kind", `{"op":"checkpoint","proc":0,"kind":"forced"}`, 1},
		{"empty body", ``, 0},
		{"empty array", `[]`, 0},
		{"trailing garbage", `{"op":"checkpoint","proc":0} {"op":"checkpoint","proc":1}`, 0},
		{"unknown op", `{"op":"rollback","proc":0}`, 0},
		{"bad kind", `{"op":"checkpoint","proc":0,"kind":"initial"}`, 0},
		{"kind on send", `{"op":"send","proc":0,"peer":1,"msg":0,"kind":"basic"}`, 0},
		{"negative proc", `{"op":"checkpoint","proc":-1}`, 0},
		{"negative msg", `{"op":"deliver","msg":-4}`, 0},
		{"not json", `checkpoint please`, 0},

		{"mixed-case keys", `{"OP":"send","Proc":0,"pEER":1,"MSG":2}`, 1},
		{"Kind", `{"op":"checkpoint","proc":0,"Kind":"forced"}`, 1},
		{"kind with a Kelvin sign", "{\"op\":\"checkpoint\",\"proc\":0,\"\u212aind\":\"forced\"}", 1},
		{"kind with an escaped Kelvin sign", `{"op":"checkpoint","proc":0,"\u212aind":"forced"}`, 1},
		{"msg with a long s", "{\"op\":\"deliver\",\"m\u017fg\":3}", 1},
		{"unknown field holding nested arrays", `{"op":"checkpoint","x":[[1,[2.5e3,{"y":[null,true]}]],[]],"proc":0}`, 1},
		{"unknown field with bad syntax", `{"op":"checkpoint","x":[[1,]],"proc":0}`, 0},
		{"unknown field with every escape", `{"op":"checkpoint","x":"\"\\\/\b\f\n\r\t\u00e9","proc":0}`, 1},
		{"unknown field with a bad escape", `{"op":"checkpoint","x":"a\qb","proc":0}`, 0},
		{"unknown field with a raw tab", "{\"op\":\"checkpoint\",\"x\":\"a\tb\",\"proc\":0}", 0},
		{"null field", `{"op":"send","proc":0,"peer":null,"msg":1}`, 1},
		{"null op", `{"op":null,"proc":0}`, 0},
		{"null element", `[{"op":"checkpoint","proc":0},null]`, 0},
		{"null body", `null`, 0},
		{"duplicate key", `{"op":"deliver","op":"checkpoint","proc":3}`, 1},
		{"duplicate key then null", `{"op":"checkpoint","op":null,"proc":3}`, 1},
		{"escaped send", `{"op":"\u0073end","proc":0,"peer":1,"msg":2}`, 1},
		{"escaped forced", `{"op":"checkpoint","kind":"\u0066orced","proc":0}`, 1},
		{"op with invalid UTF-8", "{\"op\":\"send\xff\",\"proc\":0}", 0},
		{"id 1.0", `{"op":"checkpoint","proc":1.0}`, 0},
		{"id 1e2", `{"op":"checkpoint","proc":1e2}`, 0},
		{"id as a string", `{"op":"checkpoint","proc":"1"}`, 0},
		{"id -0", `{"op":"checkpoint","proc":-0}`, 1},
		{"id of 20 digits", `{"op":"deliver","msg":12345678901234567890}`, 0},
		{"id at int64's max", `{"op":"deliver","msg":9223372036854775807}`, 1},
		{"id past int64's max", `{"op":"deliver","msg":9223372036854775808}`, 0},
		{"id with a leading zero", `{"op":"checkpoint","proc":01}`, 0},
		{"id as a bool", `{"op":"checkpoint","proc":true}`, 0},
		{"op as a number", `{"op":1,"proc":0}`, 0},
		{"NBSP around the body", "\u00a0{\"op\":\"checkpoint\",\"proc\":0}\u00a0", 1},
		{"NBSP inside the body", "{\"op\":\"checkpoint\",\u00a0\"proc\":0}", 0},
		{"trailing comma in an array", `[{"op":"checkpoint","proc":0},]`, 0},
		{"trailing comma in an object", `{"op":"checkpoint","proc":0,}`, 0},
		{"trailing data after an array", `[{"op":"checkpoint","proc":0}] []`, 0},
		{"element not an object", `[{"op":"checkpoint","proc":0},1]`, 0},
		{"nested at the depth limit", deepJSON(maxJSONDepth - 1), 1},
		{"nested past the depth limit", deepJSON(maxJSONDepth), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := oracleDecode(strings.NewReader(tc.body), 16)
			if len(want) != tc.want {
				t.Fatalf("the oracle decodes %d events (%v), the row says %d", len(want), err, tc.want)
			}
			if accepted := decodeDiff(t, []byte(tc.body), 16); accepted != (tc.want > 0) {
				t.Fatalf("accepted %v, want %v", accepted, tc.want > 0)
			}
		})
	}
}

func TestDecodeEventsBatchLimit(t *testing.T) {
	var sb strings.Builder
	sb.WriteByte('[')
	for i := 0; i < 5; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"op":"checkpoint","proc":%d}`, i)
	}
	sb.WriteByte(']')
	if _, err := DecodeEvents(strings.NewReader(sb.String()), 4); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("got %v, want ErrBatchTooLarge", err)
	}
	if _, err := DecodeEvents(strings.NewReader(sb.String()), 5); err != nil {
		t.Fatalf("batch at the limit rejected: %v", err)
	}
}

// testService builds a service whose metrics land in a fresh registry.
func testService(t *testing.T, cfg Config) (*Service, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg.Registry = reg
	cfg.Tracer = obs.NewTracer(1024)
	svc, err := New(cfg)
	if err != nil {
		t.Fatalf("new service: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := svc.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return svc, reg
}

func mustCreate(t *testing.T, svc *Service, id string, n int) *Session {
	t.Helper()
	sess, err := svc.CreateSession(id, n)
	if err != nil {
		t.Fatalf("create session: %v", err)
	}
	return sess
}

func flush(t *testing.T, sess *Session) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return sess.Flush(ctx)
}

func TestSessionVerdictMatchesBatch(t *testing.T) {
	svc, _ := testService(t, Config{})
	sess := mustCreate(t, svc, "fig", 2)

	// A same-interval zigzag closing an R-graph cycle: P1 sends in
	// I_{1,1} and receives P0's reply in the same interval, so rolling
	// back past C_{0,2} forces rolling back past C_{0,1} through P1 —
	// a dependency no vector witnesses.
	events := []Event{
		{Op: OpSend, Proc: 1, Peer: 0, Msg: 0},
		{Op: OpDeliver, Msg: 0},
		{Op: OpCheckpoint, Proc: 0},
		{Op: OpSend, Proc: 0, Peer: 1, Msg: 1},
		{Op: OpDeliver, Msg: 1},
		{Op: OpCheckpoint, Proc: 1},
	}
	if err := sess.Enqueue(events); err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	if err := flush(t, sess); err != nil {
		t.Fatalf("flush: %v", err)
	}
	v := sess.Verdict(0)
	if v.EventsApplied != int64(len(events)) {
		t.Fatalf("applied %d events, want %d", v.EventsApplied, len(events))
	}

	p, _, err := sess.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := rgraph.VerifyRecordedTDVs(p); err != nil {
		t.Fatalf("recorded TDVs: %v", err)
	}
	rep, err := rgraph.CheckRDT(p, DefaultMaxViolations)
	if err != nil {
		t.Fatalf("batch check: %v", err)
	}
	compareVerdict(t, v, rep)
	if v.RDT {
		t.Fatal("zigzag scenario judged RDT")
	}
}

func compareVerdict(t *testing.T, v *Verdict, rep *rgraph.Report) {
	t.Helper()
	if v.RDT != rep.RDT || v.RPathPairs != rep.RPathPairs || v.TrackablePairs != rep.TrackablePairs {
		t.Fatalf("verdict (rdt=%v pairs=%d/%d) != batch (rdt=%v pairs=%d/%d)",
			v.RDT, v.TrackablePairs, v.RPathPairs, rep.RDT, rep.TrackablePairs, rep.RPathPairs)
	}
	if len(v.Violations) != len(rep.Violations) {
		t.Fatalf("verdict lists %d violations, batch %d", len(v.Violations), len(rep.Violations))
	}
	for i, viol := range rep.Violations {
		if v.Violations[i] != violationInfo(viol) {
			t.Fatalf("violation %d: %+v != %+v", i, v.Violations[i], violationInfo(viol))
		}
	}
}

// TestSessionFailurePoisons: an event the checker or the service
// refuses poisons the session — a memory one, a durable one, and that
// one after Recover — counts one invalid rejection, and leaves an error
// the replay reproduces word for word. A process range and a self-send
// are the checker's to refuse; a send reusing an id that is no longer
// in flight, the service's.
func TestSessionFailurePoisons(t *testing.T) {
	tests := []struct {
		name   string
		events []Event
		want   string
	}{
		{"checkpoint out of range", []Event{{Op: OpCheckpoint, Proc: 5}},
			"rgraph: checkpoint: process 5 out of range [0,2)"},
		{"self send", []Event{{Op: OpCheckpoint, Proc: 0}, {Op: OpSend, Proc: 1, Peer: 1, Msg: 0}},
			"rgraph: send 1 -> 1: a process cannot message itself"},
		{"reuse of a delivered id", []Event{{Op: OpSend, Proc: 0, Peer: 1, Msg: 3}, {Op: OpDeliver, Msg: 3}, {Op: OpSend, Proc: 1, Peer: 0, Msg: 3}},
			"send: message id 3 already used"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			dir := t.TempDir()
			mem, memReg := testService(t, Config{})
			dur, durReg := newDurableService(dir)
			var errs []string
			for _, c := range []struct {
				svc *Service
				reg *obs.Registry
			}{{mem, memReg}, {dur, durReg}} {
				sess := mustCreate(t, c.svc, "bad", 2)
				if err := sess.Enqueue(tt.events); err != nil {
					t.Fatalf("enqueue: %v", err)
				}
				if err := flush(t, sess); err != nil {
					t.Fatalf("flush after poison: %v", err)
				}
				v := sess.Verdict(0)
				if v.State != StateFailed || !strings.Contains(v.Error, tt.want) || v.EventsApplied != int64(len(tt.events)-1) {
					t.Fatalf("state %q error %q after %d events, want failed with %q after %d",
						v.State, v.Error, v.EventsApplied, tt.want, len(tt.events)-1)
				}
				if err := sess.Enqueue([]Event{{Op: OpCheckpoint, Proc: 0}}); !errors.Is(err, ErrFailed) {
					t.Fatalf("ingest into failed session: %v, want ErrFailed", err)
				}
				if got := c.reg.Snapshot().CounterValue("rdt_service_events_rejected_total", "reason", "invalid"); got != 1 {
					t.Fatalf("rejected{invalid} = %d, want 1", got)
				}
				errs = append(errs, v.Error)
			}
			drainNow(t, dur)
			rec, _ := newDurableService(dir)
			defer drainNow(t, rec)
			if _, err := rec.Recover(); err != nil {
				t.Fatalf("recover: %v", err)
			}
			sess, err := rec.Session("bad")
			if err != nil {
				t.Fatalf("session after recovery: %v", err)
			}
			if v := sess.Verdict(0); v.State != StateFailed || v.Error != errs[1] || errs[0] != errs[1] {
				t.Fatalf("after replay: state %q error %q; live errors %q", v.State, v.Error, errs)
			}
		})
	}
}

func TestSessionSealIsFinal(t *testing.T) {
	svc, _ := testService(t, Config{})
	sess := mustCreate(t, svc, "seal", 2)
	events := []Event{
		{Op: OpSend, Proc: 0, Peer: 1, Msg: 0},
		{Op: OpCheckpoint, Proc: 0},
	}
	if err := sess.Enqueue(events); err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	ctx := context.Background()
	if err := sess.Seal(ctx); err != nil {
		t.Fatalf("seal: %v", err)
	}
	if err := sess.Seal(ctx); err != nil {
		t.Fatalf("second seal: %v", err)
	}
	v := sess.Verdict(0)
	if v.State != StateSealed {
		t.Fatalf("state %q, want sealed", v.State)
	}
	if v.InFlight != 0 {
		t.Fatalf("sealed session has %d in-flight messages", v.InFlight)
	}
	if err := sess.Enqueue([]Event{{Op: OpCheckpoint, Proc: 0}}); !errors.Is(err, ErrSealed) {
		t.Fatalf("ingest into sealed session: %v, want ErrSealed", err)
	}
}

func TestSessionLine(t *testing.T) {
	svc, reg := testService(t, Config{})
	sess := mustCreate(t, svc, "line", 2)
	// P1's checkpoint depends on P0's open interval 1: an orphan
	// delivery, so P1 must roll back to its initial checkpoint.
	events := []Event{
		{Op: OpSend, Proc: 0, Peer: 1, Msg: 0},
		{Op: OpDeliver, Msg: 0, Proc: 1},
		{Op: OpCheckpoint, Proc: 1},
	}
	if err := sess.Enqueue(events); err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	if err := flush(t, sess); err != nil {
		t.Fatalf("flush: %v", err)
	}
	plan, err := sess.Line()
	if err != nil {
		t.Fatalf("line: %v", err)
	}
	wantLine := model.GlobalCheckpoint{0, 0}
	wantBounds := model.GlobalCheckpoint{0, 1}
	for i := range wantLine {
		if plan.Line[i] != wantLine[i] || plan.Bounds[i] != wantBounds[i] {
			t.Fatalf("line %v bounds %v, want %v %v", plan.Line, plan.Bounds, wantLine, wantBounds)
		}
	}
	if plan.TotalRollback() != 1 {
		t.Fatalf("total rollback %d, want 1", plan.TotalRollback())
	}
	if got := reg.Snapshot().CounterValue("rdt_recoveries_total"); got != 1 {
		t.Fatalf("rdt_recoveries_total = %d, want 1", got)
	}
}

func TestBackpressure(t *testing.T) {
	svc, reg := testService(t, Config{})
	sess := mustCreate(t, svc, "slow", 2)

	// Park the worker on a gate, fill every queue slot, and watch the
	// next enqueue bounce.
	gate := make(chan struct{})
	if err := sess.enqueue(batch{gate: gate}); err != nil {
		t.Fatalf("gate batch: %v", err)
	}
	waitFor(t, func() bool { return len(sess.queue) == 0 }) // worker picked the gate up
	for i := 0; i < DefaultQueueDepth; i++ {
		if err := sess.Enqueue([]Event{{Op: OpCheckpoint, Proc: 0}}); err != nil {
			t.Fatalf("batch %d should fit: %v", i, err)
		}
	}
	if err := sess.Enqueue([]Event{{Op: OpCheckpoint, Proc: 1}}); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("batch past the queue depth: %v, want ErrBackpressure", err)
	}
	close(gate)
	waitFor(t, func() bool { return len(sess.queue) == 0 }) // room for the barrier
	if err := flush(t, sess); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if v := sess.Verdict(0); v.EventsApplied != DefaultQueueDepth {
		t.Fatalf("applied %d events, want %d", v.EventsApplied, DefaultQueueDepth)
	}
	if got := reg.Snapshot().CounterValue("rdt_service_events_rejected_total", "reason", "backpressure"); got < 1 {
		t.Fatalf("rejected{backpressure} = %d, want >= 1", got)
	}
	if got := reg.Snapshot().CounterValue("rdt_service_backpressure_total"); got < 1 {
		t.Fatalf("rdt_service_backpressure_total = %d, want >= 1", got)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestIdleEviction(t *testing.T) {
	v := vtime.NewVirtual(time.Time{})
	svc, reg := testService(t, Config{IdleTimeout: time.Minute, Clock: v})
	mustCreate(t, svc, "idle", 2)
	// A sweep before the timeout must keep the session (sweep called
	// directly: the cut logic is what's under test here).
	v.Advance(30 * time.Second)
	svc.sweep()
	if _, err := svc.Session("idle"); err != nil {
		t.Fatalf("evicted before the idle timeout: %v", err)
	}
	// Past the timeout the janitor's own sweep does the eviction, inside
	// the Advance that reaches it.
	v.Advance(2 * time.Minute)
	if _, err := svc.Session("idle"); !errors.Is(err, ErrNoSession) {
		t.Fatalf("session after the idle sweep: err = %v, want ErrNoSession", err)
	}
	if got := reg.Snapshot().CounterValue("rdt_service_sessions_evicted_total", "reason", "idle"); got != 1 {
		t.Fatalf("evicted{idle} = %d, want 1", got)
	}
	if got := svc.SessionCount(); got != 0 {
		t.Fatalf("%d sessions left after eviction", got)
	}
}

// TestFallbackIDUnique: the entropy-less session-id fallback must not
// collide even when many ids are minted in the same (frozen) instant.
func TestFallbackIDUnique(t *testing.T) {
	const workers, per = 8, 200
	ids := make(chan string, workers*per)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ids <- fallbackID()
			}
		}()
	}
	wg.Wait()
	close(ids)
	seen := make(map[string]bool)
	for id := range ids {
		if seen[id] {
			t.Fatalf("fallback id %q minted twice", id)
		}
		seen[id] = true
		if !validSessionID(id) {
			t.Fatalf("fallback id %q is not a valid session id", id)
		}
	}
}

func TestDrainAppliesAcknowledged(t *testing.T) {
	reg := obs.NewRegistry()
	svc, err := New(Config{Registry: reg})
	if err != nil {
		t.Fatalf("new service: %v", err)
	}
	sess, err := svc.CreateSession("d", 2)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	const batches = 50
	for i := 0; i < batches; i++ {
		if err := sess.Enqueue([]Event{{Op: OpCheckpoint, Proc: i % 2}}); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := svc.CreateSession("late", 2); !errors.Is(err, ErrDraining) {
		t.Fatalf("create while draining: %v, want ErrDraining", err)
	}
	if err := sess.Enqueue([]Event{{Op: OpCheckpoint, Proc: 0}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue after drain: %v, want ErrClosed", err)
	}
	// Everything acknowledged before the drain must have been applied.
	if v := sess.Verdict(0); v.EventsApplied != batches {
		t.Fatalf("applied %d events, want %d", v.EventsApplied, batches)
	}
}

func TestSessionIDValidation(t *testing.T) {
	svc, _ := testService(t, Config{})
	for _, id := range []string{"ok-id_1.x", "A"} {
		if _, err := svc.CreateSession(id, 2); err != nil {
			t.Fatalf("id %q rejected: %v", id, err)
		}
	}
	for _, id := range []string{"has space", "slash/y", strings.Repeat("x", 65), "Ω"} {
		if _, err := svc.CreateSession(id, 2); err == nil {
			t.Fatalf("id %q accepted", id)
		}
	}
	if _, err := svc.CreateSession("dup", 2); err != nil {
		t.Fatalf("create dup: %v", err)
	}
	if _, err := svc.CreateSession("dup", 2); !errors.Is(err, ErrSessionExists) {
		t.Fatalf("duplicate id: %v, want ErrSessionExists", err)
	}
	if _, err := svc.CreateSession("", 0); err == nil {
		t.Fatal("n=0 accepted")
	}
	auto, err := svc.CreateSession("", 3)
	if err != nil || auto.ID == "" {
		t.Fatalf("auto id: %q, %v", auto.ID, err)
	}
}

// --- HTTP layer ---

type client struct {
	t    *testing.T
	base string
	http *http.Client
}

func newClient(t *testing.T, base string) *client {
	return &client{t: t, base: base, http: &http.Client{Timeout: 10 * time.Second}}
}

func (c *client) do(method, path string, body any) (*http.Response, []byte) {
	c.t.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			c.t.Fatalf("marshal body: %v", err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.t.Fatalf("new request: %v", err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		c.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatalf("read response: %v", err)
	}
	return resp, data
}

func (c *client) expect(method, path string, body any, code int, out any) {
	c.t.Helper()
	resp, data := c.do(method, path, body)
	if resp.StatusCode != code {
		c.t.Fatalf("%s %s: status %d, want %d (body %s)", method, path, resp.StatusCode, code, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			c.t.Fatalf("%s %s: decode %q: %v", method, path, data, err)
		}
	}
}

func newTestServer(t *testing.T, cfg Config) (*client, *Service, *obs.Registry) {
	t.Helper()
	svc, reg := testService(t, cfg)
	ts := httptest.NewServer(NewHandler(svc))
	t.Cleanup(ts.Close)
	return newClient(t, ts.URL), svc, reg
}

func TestHTTPLifecycle(t *testing.T) {
	c, _, reg := newTestServer(t, Config{})

	var created createResponse
	c.expect("POST", "/v1/sessions", createRequest{ID: "alpha", N: 3}, http.StatusCreated, &created)
	if created.ID != "alpha" || created.N != 3 {
		t.Fatalf("created %+v", created)
	}
	c.expect("POST", "/v1/sessions", createRequest{ID: "alpha", N: 3}, http.StatusConflict, nil)
	c.expect("POST", "/v1/sessions", createRequest{N: 0}, http.StatusBadRequest, nil)

	var auto createResponse
	c.expect("POST", "/v1/sessions", createRequest{N: 2}, http.StatusCreated, &auto)

	var list struct {
		Sessions []Info `json:"sessions"`
	}
	c.expect("GET", "/v1/sessions", nil, http.StatusOK, &list)
	if len(list.Sessions) != 2 {
		t.Fatalf("listed %d sessions, want 2", len(list.Sessions))
	}

	var ing ingestResponse
	c.expect("POST", "/v1/sessions/alpha/events", []Event{
		{Op: OpSend, Proc: 0, Peer: 1, Msg: 0},
		{Op: OpDeliver, Msg: 0, Proc: 1},
		{Op: OpCheckpoint, Proc: 1},
	}, http.StatusAccepted, &ing)
	if ing.Enqueued != 3 {
		t.Fatalf("enqueued %d, want 3", ing.Enqueued)
	}
	// A single bare event object works too.
	c.expect("POST", "/v1/sessions/alpha/events", Event{Op: OpCheckpoint, Proc: 0}, http.StatusAccepted, nil)
	c.expect("POST", "/v1/sessions/missing/events", Event{Op: OpCheckpoint, Proc: 0}, http.StatusNotFound, nil)

	var v Verdict
	c.expect("GET", "/v1/sessions/alpha/verdict?flush=1", nil, http.StatusOK, &v)
	if v.EventsApplied != 4 || v.State != StateActive {
		t.Fatalf("verdict %+v", v)
	}

	var line lineResponse
	c.expect("GET", "/v1/sessions/alpha/line", nil, http.StatusOK, &line)
	if len(line.Line) != 3 {
		t.Fatalf("line %+v", line)
	}

	resp, data := c.do("GET", "/v1/sessions/alpha/trace", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: %d (%s)", resp.StatusCode, data)
	}
	p, err := trace.Load(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("load trace: %v", err)
	}
	if err := rgraph.VerifyRecordedTDVs(p); err != nil {
		t.Fatalf("trace TDVs: %v", err)
	}

	var sealed Verdict
	c.expect("POST", "/v1/sessions/alpha/seal", nil, http.StatusOK, &sealed)
	if sealed.State != StateSealed {
		t.Fatalf("seal verdict %+v", sealed)
	}
	c.expect("POST", "/v1/sessions/alpha/events", Event{Op: OpCheckpoint, Proc: 0}, http.StatusConflict, nil)

	c.expect("DELETE", "/v1/sessions/alpha", nil, http.StatusNoContent, nil)
	c.expect("DELETE", "/v1/sessions/alpha", nil, http.StatusNotFound, nil)
	c.expect("GET", "/v1/sessions/alpha/verdict", nil, http.StatusNotFound, nil)

	var health struct {
		Status   string `json:"status"`
		Sessions int    `json:"sessions"`
	}
	c.expect("GET", "/healthz", nil, http.StatusOK, &health)
	if health.Status != "ok" || health.Sessions != 1 {
		t.Fatalf("health %+v", health)
	}

	// The latency histograms observed every endpoint touched above.
	snap := reg.Snapshot()
	for _, ep := range []string{"create", "list", "ingest", "verdict", "line", "trace", "seal", "delete", "healthz"} {
		if m, ok := snap.Get("rdt_service_request_seconds", "endpoint", ep); !ok || m.Count == 0 {
			t.Fatalf("endpoint %q has no latency observations", ep)
		}
	}

	// /metrics is mounted on the same mux and includes service series.
	resp, data = c.do("GET", "/metrics", nil)
	if resp.StatusCode != http.StatusOK || !bytes.Contains(data, []byte("rdt_service_events_ingested_total")) {
		t.Fatalf("metrics endpoint: %d (%.120s)", resp.StatusCode, data)
	}
}

// TestHTTPExplainAndTimeline drives the zigzag scenario of
// TestSessionVerdictMatchesBatch through the HTTP API and checks the two
// observability endpoints: /explain returns an independently verifiable
// witness (plus the highlighted DOT), /timeline returns Chrome
// trace-event JSON of the pattern-so-far.
func TestHTTPExplainAndTimeline(t *testing.T) {
	c, _, _ := newTestServer(t, Config{})
	c.expect("POST", "/v1/sessions", createRequest{ID: "zig", N: 2}, http.StatusCreated, nil)
	c.expect("POST", "/v1/sessions/zig/events", []Event{
		{Op: OpSend, Proc: 1, Peer: 0, Msg: 0},
		{Op: OpDeliver, Msg: 0},
		{Op: OpCheckpoint, Proc: 0},
		{Op: OpSend, Proc: 0, Peer: 1, Msg: 1},
		{Op: OpDeliver, Msg: 1},
		{Op: OpCheckpoint, Proc: 1},
	}, http.StatusAccepted, nil)
	c.expect("GET", "/v1/sessions/zig/verdict?flush=1", nil, http.StatusOK, nil)

	var exp explainResponse
	c.expect("GET", "/v1/sessions/zig/explain?dot=1", nil, http.StatusOK, &exp)
	if exp.RDT || len(exp.Witnesses) == 0 {
		t.Fatalf("explain found no witnesses for the zigzag scenario: %+v", exp)
	}
	for _, w := range exp.Witnesses {
		if len(w.Hops) < 2 {
			t.Fatalf("witness %q has %d hops, want >= 2", w.String, len(w.Hops))
		}
		if w.NonCausal < 1 {
			t.Fatalf("witness %q has no non-causal continuation", w.String)
		}
	}
	if !strings.Contains(exp.DOT, "color=red") {
		t.Fatalf("witness DOT does not highlight the witness:\n%s", exp.DOT)
	}

	// The witness survives independent re-verification against the
	// pattern the /trace endpoint serves.
	resp, data := c.do("GET", "/v1/sessions/zig/trace", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: %d", resp.StatusCode)
	}
	p, err := trace.Load(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("load trace: %v", err)
	}
	_, witnesses, err := rgraph.Explain(p, 16)
	if err != nil {
		t.Fatalf("batch explain: %v", err)
	}
	if len(witnesses) != len(exp.Witnesses) {
		t.Fatalf("batch explain found %d witnesses, endpoint %d", len(witnesses), len(exp.Witnesses))
	}
	for i, w := range witnesses {
		if err := rgraph.VerifyWitness(p, w); err != nil {
			t.Fatalf("witness %d: %v", i, err)
		}
		if w.String() != exp.Witnesses[i].String {
			t.Fatalf("witness %d: batch %q != endpoint %q", i, w.String(), exp.Witnesses[i].String)
		}
	}

	resp, data = c.do("GET", "/v1/sessions/zig/timeline", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("timeline: %d (%s)", resp.StatusCode, data)
	}
	var doc struct {
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		TraceEvents     []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("timeline is not valid JSON: %v\n%s", err, data)
	}
	// Two spans per message plus one per non-initial checkpoint.
	if doc.DisplayTimeUnit != "ms" || len(doc.TraceEvents) < 2*len(p.Messages) {
		t.Fatalf("timeline has %d events (unit %q), want >= %d", len(doc.TraceEvents), doc.DisplayTimeUnit, 2*len(p.Messages))
	}
}

func TestHTTPBadBodies(t *testing.T) {
	c, _, _ := newTestServer(t, Config{})
	c.expect("POST", "/v1/sessions", createRequest{ID: "s", N: 2}, http.StatusCreated, nil)

	for _, body := range []string{``, `{"op":"explode"}`, `[{"op":"send","proc":0,"peer":1,"msg":-1}]`, `{]`, `[]`} {
		resp, err := http.Post(c.base+"/v1/sessions/s/events", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("post %q: %v", body, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestHTTPBackpressureStatus(t *testing.T) {
	c, svc, _ := newTestServer(t, Config{})
	c.expect("POST", "/v1/sessions", createRequest{ID: "bp", N: 2}, http.StatusCreated, nil)
	sess, err := svc.Session("bp")
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	gate := make(chan struct{})
	defer close(gate)
	if err := sess.enqueue(batch{gate: gate}); err != nil {
		t.Fatalf("gate: %v", err)
	}
	waitFor(t, func() bool { return len(sess.queue) == 0 })
	// Every slot but one fills in process; the last one over HTTP.
	for i := 1; i < DefaultQueueDepth; i++ {
		if err := sess.Enqueue([]Event{{Op: OpCheckpoint, Proc: 0}}); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	c.expect("POST", "/v1/sessions/bp/events", Event{Op: OpCheckpoint, Proc: 0}, http.StatusAccepted, nil)

	resp, _ := c.do("POST", "/v1/sessions/bp/events", Event{Op: OpCheckpoint, Proc: 1})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestHTTPDifferentialRandom drives a random event stream through the
// HTTP API while mirroring it into a local Builder, then checks the
// flushed verdict against the batch checker on the mirrored snapshot —
// wire-to-verdict parity, complementing the rgraph-level differential
// test.
func TestHTTPDifferentialRandom(t *testing.T) {
	c, _, _ := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(0xbead))

	for trial := 0; trial < 8; trial++ {
		n := 2 + rng.Intn(3)
		id := fmt.Sprintf("diff-%d", trial)
		c.expect("POST", "/v1/sessions", createRequest{ID: id, N: n}, http.StatusCreated, nil)

		mirror := model.NewBuilder(n)
		handles := map[int]int{}
		nextMsg := 0
		var pending []Event
		var inFlight []int

		steps := 30 + rng.Intn(60)
		for s := 0; s < steps; s++ {
			switch k := rng.Intn(10); {
			case k < 4:
				proc := rng.Intn(n)
				pending = append(pending, Event{Op: OpCheckpoint, Proc: proc})
				mirror.Checkpoint(model.ProcID(proc), model.KindBasic, nil)
			case k < 8 || len(inFlight) == 0:
				from := rng.Intn(n)
				to := rng.Intn(n - 1)
				if to >= from {
					to++
				}
				msg := nextMsg
				nextMsg++
				pending = append(pending, Event{Op: OpSend, Proc: from, Peer: to, Msg: msg})
				handles[msg] = mirror.Send(model.ProcID(from), model.ProcID(to))
				inFlight = append(inFlight, msg)
			default:
				i := rng.Intn(len(inFlight))
				msg := inFlight[i]
				inFlight = append(inFlight[:i], inFlight[i+1:]...)
				pending = append(pending, Event{Op: OpDeliver, Msg: msg})
				if err := mirror.Deliver(handles[msg]); err != nil {
					t.Fatalf("mirror deliver: %v", err)
				}
			}
			// Ship in irregular batches, as a real client would.
			if len(pending) >= 1+rng.Intn(6) {
				c.expect("POST", "/v1/sessions/"+id+"/events", pending, http.StatusAccepted, nil)
				pending = nil
			}
		}
		if len(pending) > 0 {
			c.expect("POST", "/v1/sessions/"+id+"/events", pending, http.StatusAccepted, nil)
		}

		var v Verdict
		c.expect("GET", "/v1/sessions/"+id+"/verdict?flush=1", nil, http.StatusOK, &v)
		p, _, err := mirror.Snapshot()
		if err != nil {
			t.Fatalf("mirror snapshot: %v", err)
		}
		rep, err := rgraph.CheckRDT(p, DefaultMaxViolations)
		if err != nil {
			t.Fatalf("batch check: %v", err)
		}
		compareVerdict(t, &v, rep)

		// Sealing must not change the verdict: the seal-now report
		// already evaluated the finalized pattern.
		var sealed Verdict
		c.expect("POST", "/v1/sessions/"+id+"/seal", nil, http.StatusOK, &sealed)
		compareVerdict(t, &sealed, rep)
	}
}

// TestHTTPViolationsParam pins the ?violations= cap on both endpoints
// that take it: a decimal integer or nothing, never a prefix of one,
// and never above MaxViolations.
func TestHTTPViolationsParam(t *testing.T) {
	const serviceDefault = DefaultMaxViolations
	c, _, _ := newTestServer(t, Config{})
	c.expect("POST", "/v1/sessions", createRequest{ID: "v", N: 2}, http.StatusCreated, nil)
	// Each round is the two-process zigzag: an untrackable pair per
	// round and more across rounds.
	var events []Event
	for round := 0; round < 4; round++ {
		events = append(events,
			Event{Op: OpSend, Proc: 1, Peer: 0, Msg: 2 * round},
			Event{Op: OpDeliver, Proc: 0, Msg: 2 * round},
			Event{Op: OpCheckpoint, Proc: 0},
			Event{Op: OpSend, Proc: 0, Peer: 1, Msg: 2*round + 1},
			Event{Op: OpDeliver, Proc: 1, Msg: 2*round + 1},
			Event{Op: OpCheckpoint, Proc: 1},
		)
	}
	c.expect("POST", "/v1/sessions/v/events", events, http.StatusAccepted, nil)
	var all Verdict
	c.expect("GET", "/v1/sessions/v/verdict?flush=1&violations=1000", nil, http.StatusOK, &all)
	if len(all.Violations) <= serviceDefault {
		t.Fatalf("fixture has %d violations, need more than the default %d", len(all.Violations), serviceDefault)
	}

	for _, tc := range []struct {
		param string
		code  int
		want  int
	}{
		{"?violations=5x", http.StatusBadRequest, 0},
		{"?violations=%207", http.StatusBadRequest, 0},
		{"?violations=3", http.StatusOK, 3},
		{"?violations=-1", http.StatusOK, serviceDefault},
		{"", http.StatusOK, serviceDefault},
		{fmt.Sprintf("?violations=%d", MaxViolations), http.StatusOK, len(all.Violations)},
		{fmt.Sprintf("?violations=%d", MaxViolations+1), http.StatusBadRequest, 0},
	} {
		var v Verdict
		var ex explainResponse
		c.expect("GET", "/v1/sessions/v/verdict"+tc.param, nil, tc.code, &v)
		c.expect("GET", "/v1/sessions/v/explain"+tc.param, nil, tc.code, &ex)
		if len(v.Violations) != tc.want || len(ex.Witnesses) != tc.want {
			t.Errorf("%q: %d violations, %d witnesses listed, want %d", tc.param, len(v.Violations), len(ex.Witnesses), tc.want)
		}
	}
}
