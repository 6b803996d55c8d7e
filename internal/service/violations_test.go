package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/rdt-go/rdt/internal/obs"
	"github.com/rdt-go/rdt/internal/rgraph"
)

// observeOracle is the reference violation observer: it counts and
// traces each violation the moment the checker reports it, its text
// formatted at once. The service stages a group's violations and reports
// them together; what a reader sees must not differ.
func observeOracle(s *Session) {
	svc := s.svc
	s.inc.OnViolation(func(v rgraph.Violation) {
		svc.mViolations.Inc()
		if svc.cfg.Tracer == nil {
			return
		}
		svc.cfg.Tracer.Record(obs.Event{
			Type:   obs.EventViolation,
			Proc:   int(v.From.Proc),
			Peer:   int(v.To.Proc),
			Value:  v.From.Index,
			Detail: v.String(),
		})
	})
}

// traceOutcome is everything a service tells a reader of the violations
// it saw.
type traceOutcome struct {
	Tail       string // the tracer's whole retained ring as JSON
	Dropped    uint64
	Violations int64 // rdt_service_violations_total
	Drops      int64 // rdt_obs_events_dropped_total
}

// violationTrace runs drive on a fresh service with a tracer of the
// given capacity — the oracle observer on every session drive creates
// when oracle is set — and returns what the service reports.
func violationTrace(t *testing.T, capacity int, durable, oracle bool, drive func(create func(id string) *Session)) traceOutcome {
	t.Helper()
	reg := obs.NewRegistry()
	tr := obs.NewTracer(capacity)
	tr.ObserveDrops(reg)
	cfg := Config{Registry: reg, Tracer: tr}
	if durable {
		cfg.DataDir = t.TempDir()
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatalf("new service: %v", err)
	}
	defer drainNow(t, svc)
	drive(func(id string) *Session {
		sess := mustCreate(t, svc, id, 4)
		if oracle {
			sess.mu.Lock()
			observeOracle(sess)
			sess.mu.Unlock()
		}
		return sess
	})
	tail, err := json.Marshal(tr.Tail(0))
	if err != nil {
		t.Fatalf("marshal tail: %v", err)
	}
	snap := reg.Snapshot()
	return traceOutcome{
		Tail:       string(tail),
		Dropped:    tr.Dropped(),
		Violations: snap.CounterValue("rdt_service_violations_total"),
		Drops:      snap.CounterValue("rdt_obs_events_dropped_total"),
	}
}

// TestViolationTraceMatchesOracle: staging a commit group's violations
// and reporting them once, formatted on read, shows a reader exactly
// what counting and formatting each one as it appears did — the same
// tail, byte for byte (seq, type, proc, peer, value, detail), the same
// dropped count and the same counters — on memory and durable sessions
// fed in multi-batch groups, across a seal that closes open intervals,
// and when one group's violations overflow a small ring.
func TestViolationTraceMatchesOracle(t *testing.T) {
	seeded := func(t *testing.T, sealed *int) func(create func(string) *Session) {
		return func(create func(string) *Session) {
			for i := int64(0); i < 3; i++ {
				rng := rand.New(rand.NewSource(31 + i))
				sess := create(fmt.Sprintf("s%d", i))
				feed(t, rng, sess, genWorkload(rng, 4, 240))
				sess.mu.Lock()
				before := sess.inc.Violations()
				sess.mu.Unlock()
				if err := sess.Seal(t.Context()); err != nil {
					t.Fatalf("seal: %v", err)
				}
				sess.mu.Lock()
				*sealed += sess.inc.Violations() - before
				sess.mu.Unlock()
			}
		}
	}
	oneGroup := func(t *testing.T) func(create func(string) *Session) {
		return func(create func(string) *Session) {
			sess := create("burst")
			svc := sess.svc
			// The batch's ack already sees all of its violations counted
			// and traced.
			acked := make(chan [2]int64, 1)
			if err := sess.EnqueueNotify(genWorkload(rand.New(rand.NewSource(7)), 4, 400), func(error) {
				acked <- [2]int64{svc.mViolations.Value(), int64(svc.cfg.Tracer.Seq())}
			}); err != nil {
				t.Fatalf("enqueue: %v", err)
			}
			if err := flush(t, sess); err != nil {
				t.Fatalf("flush: %v", err)
			}
			final := svc.mViolations.Value()
			if got := <-acked; got != [2]int64{final, final} {
				t.Fatalf("at the ack (counted, traced) = %v, want both %d", got, final)
			}
		}
	}
	for _, tc := range []struct {
		name     string
		capacity int
		durable  bool
		overflow bool
	}{
		{"memory", 4096, false, false},
		{"durable", 4096, true, false},
		{"memory-small-ring", 64, false, true},
		{"durable-small-ring", 64, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sealed, oracleSealed int
			got := violationTrace(t, tc.capacity, tc.durable, false, seeded(t, &sealed))
			want := violationTrace(t, tc.capacity, tc.durable, true, seeded(t, &oracleSealed))
			if got != want {
				t.Fatalf("the staged path reports\n  %+v\nthe oracle\n  %+v", got, want)
			}
			if got.Violations == 0 || sealed == 0 {
				t.Fatalf("%d violations, %d of them at the seal: the workload lost its coverage", got.Violations, sealed)
			}
			if tc.overflow != (got.Dropped > 0) {
				t.Fatalf("dropped %d of %d events from a ring of %d", got.Dropped, got.Violations, tc.capacity)
			}
		})
	}
	t.Run("one-group-overflows", func(t *testing.T) {
		got := violationTrace(t, 64, false, false, oneGroup(t))
		want := violationTrace(t, 64, false, true, oneGroup(t))
		if got != want {
			t.Fatalf("the staged path reports\n  %+v\nthe oracle\n  %+v", got, want)
		}
		if got.Violations <= 2*64 || got.Dropped != uint64(got.Violations-64) {
			t.Fatalf("one group of %d violations into a ring of 64 dropped %d", got.Violations, got.Dropped)
		}
	})
}

// TestViolatingApplyAllocs: reporting a commit group's violations costs
// a constant number of allocations, however many there are — the
// counter is added once, the tracer slots are written in place and no
// text is formatted. The batch is committed with and without the
// observer; only the reporting differs between the two.
func TestViolatingApplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; alloc counts are noise there")
	}
	svc, reg := testService(t, Config{})
	rec, err := encodeRecord(genWorkload(rand.New(rand.NewSource(3)), 8, 256), false, "", 0)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	commit := func(observed bool) int {
		sess, err := newSession(svc, "allocs", 8)
		if err != nil {
			t.Fatalf("new session: %v", err)
		}
		if observed {
			sess.observe()
		}
		sess.commit(batch{record: rec})
		if sess.failErr != nil {
			t.Fatalf("apply: %v", sess.failErr)
		}
		return sess.inc.Violations()
	}
	violations := commit(true)
	if violations < 100 {
		t.Fatalf("the batch produces %d violations; the test needs at least 100", violations)
	}
	before := reg.Snapshot().CounterValue("rdt_service_violations_total")
	observed := testing.AllocsPerRun(50, func() { commit(true) })
	bare := testing.AllocsPerRun(50, func() { commit(false) })
	if got := reg.Snapshot().CounterValue("rdt_service_violations_total") - before; got != 51*int64(violations) {
		t.Fatalf("rdt_service_violations_total grew by %d over 51 observed commits of %d violations", got, violations)
	}
	t.Logf("%d violations: %.0f allocations with the observer, %.0f without", violations, observed, bare)
	if observed > bare+2 {
		t.Fatalf("reporting %d violations costs %.0f allocations (%.0f with the observer, %.0f without), budget 2",
			violations, observed-bare, observed, bare)
	}
}

// TestViolationTraceConcurrentReads: four sessions stage and report
// violations while readers pull the whole ring over /debug/events and
// poll Dropped. Under -race this checks that rendering on read, outside
// the tracer's lock, shares nothing with the writers; every read must
// see contiguous timestamps and rendered text, and at the end the ring
// accounts for every violation the counter saw.
func TestViolationTraceConcurrentReads(t *testing.T) {
	svc, reg := testService(t, Config{})
	handler := NewHandler(svc)
	tr := svc.cfg.Tracer
	var writers, readers sync.WaitGroup
	var done atomic.Bool
	var reads atomic.Int64
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var dropped uint64
			for !done.Load() || reads.Load() < 2 {
				reads.Add(1)
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/events?n=0", nil))
				var body struct {
					Events []obs.Event `json:"events"`
				}
				if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &body) != nil {
					t.Errorf("/debug/events: status %d, body %.200s", rec.Code, rec.Body.Bytes())
					return
				}
				for i, ev := range body.Events {
					if ev.Type != obs.EventViolation || ev.Detail == "" || (i > 0 && ev.Seq != body.Events[i-1].Seq+1) {
						t.Errorf("event %d of a read: %+v", i, ev)
						return
					}
				}
				d := tr.Dropped()
				if d < dropped {
					t.Errorf("Dropped went back from %d to %d", dropped, d)
					return
				}
				dropped = d
			}
		}()
	}
	for w := 0; w < 4; w++ {
		sess := mustCreate(t, svc, fmt.Sprintf("w%d", w), 6)
		events := genWorkload(rand.New(rand.NewSource(int64(100+w))), 6, 1200)
		writers.Add(1)
		go func() {
			defer writers.Done()
			for len(events) > 0 {
				k := min(48, len(events))
				err := sess.Enqueue(events[:k])
				if errors.Is(err, ErrBackpressure) {
					err = flush(t, sess)
				} else if err == nil {
					events = events[k:]
				}
				if err != nil {
					t.Errorf("ingest: %v", err)
					return
				}
			}
			if err := flush(t, sess); err != nil {
				t.Errorf("flush: %v", err)
			}
		}()
	}
	writers.Wait()
	done.Store(true)
	readers.Wait()
	violations := reg.Snapshot().CounterValue("rdt_service_violations_total")
	if violations == 0 || int64(tr.Seq()) != violations || tr.Dropped() == 0 || tr.Dropped() != tr.Seq()-uint64(tr.Len()) {
		t.Fatalf("%d violations counted; the ring holds %d of seq %d with %d dropped", violations, tr.Len(), tr.Seq(), tr.Dropped())
	}
	t.Logf("%d violations, %d dropped, %d reads", violations, tr.Dropped(), reads.Load())
}
