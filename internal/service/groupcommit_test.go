package service

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/rdt-go/rdt/internal/rgraph"
)

// frame is one stream frame of a hand-built group.
type frame struct {
	producer string
	seq      uint64
	events   []Event
}

// enqueueGroup parks the worker on a gate, queues the frames behind it
// and releases it, so the worker commits them as one group; it returns
// each frame's apply error, in notify order, once a flush has passed.
func enqueueGroup(t *testing.T, sess *Session, frames []frame) []error {
	t.Helper()
	gate := make(chan struct{})
	if err := sess.enqueue(batch{gate: gate}); err != nil {
		t.Fatalf("gate batch: %v", err)
	}
	var mu sync.Mutex
	var errs []error
	for _, f := range frames {
		_, err := sess.EnqueueSeq(f.producer, f.seq, f.events, false, func(err error) {
			mu.Lock()
			errs = append(errs, err)
			mu.Unlock()
		})
		if err != nil {
			t.Fatalf("enqueue %s/%d: %v", f.producer, f.seq, err)
		}
	}
	close(gate)
	ferr := flush(t, sess)
	mu.Lock()
	defer mu.Unlock()
	if len(errs) != len(frames) {
		t.Fatalf("%d of %d frames were answered before the flush returned (%v)", len(errs), len(frames), ferr)
	}
	return errs
}

// observables is everything invariant (c) says a live session and a
// replay of its directory agree on.
type observables struct {
	verdict Verdict
	line    any
	trace   []byte
	prodSeq map[string]uint64
}

func observe(t *testing.T, sess *Session) observables {
	t.Helper()
	line, err := sess.Line()
	if err != nil {
		t.Fatalf("line: %v", err)
	}
	return observables{verdict: *sess.Verdict(0), line: line, trace: traceBytes(t, sess), prodSeq: sess.durableState().prodSeq}
}

// TestGroupCommitPoisonMidGroup pins invariant (c): a batch that poisons
// the session in the middle of a group leaves the group's later records
// logged, and the live session must treat them exactly as a replay of
// its directory does — same applied count, verdict, recovery line,
// pattern and stream watermarks — and the batch checker must agree.
func TestGroupCommitPoisonMidGroup(t *testing.T) {
	dir := t.TempDir()
	svc, reg := newDurableService(dir)
	sess := mustCreate(t, svc, "poison", 2)
	errs := enqueueGroup(t, sess, []frame{
		{"p", 1, []Event{{Op: OpSend, Proc: 1, Peer: 0, Msg: 0}, {Op: OpDeliver, Msg: 0}, {Op: OpCheckpoint, Proc: 0}}},
		{"p", 2, []Event{{Op: OpSend, Proc: 0, Peer: 1, Msg: 1}, {Op: OpDeliver, Msg: 7}, {Op: OpCheckpoint, Proc: 1}}},
		{"p", 3, []Event{{Op: OpCheckpoint, Proc: 0}, {Op: OpSend, Proc: 0, Peer: 1, Msg: 2}}},
		{"q", 1, []Event{{Op: OpCheckpoint, Proc: 1}}},
	})
	if errs[0] != nil {
		t.Fatalf("frame before the poison: %v", errs[0])
	}
	for i, err := range errs[1:] {
		if !errors.Is(err, ErrFailed) {
			t.Fatalf("frame %d at or after the poison: %v, want ErrFailed", i+1, err)
		}
	}
	snap := reg.Snapshot()
	if syncs, appends := snap.CounterValue("rdt_wal_syncs_total"), snap.CounterValue("rdt_wal_appends_total"); syncs != 1 || appends != 4 {
		t.Fatalf("%d records under %d fsyncs, want the 4 frames logged as one group", appends, syncs)
	}
	live := observe(t, sess)
	if v := sess.Verdict(0); v.State != StateFailed || v.EventsApplied != 4 {
		t.Fatalf("live session: state %q, %d events applied; want failed with 4", v.State, v.EventsApplied)
	}
	if want := map[string]uint64{"p": 3, "q": 1}; !reflect.DeepEqual(live.prodSeq, want) {
		t.Fatalf("live watermarks %v, want %v: every logged frame advances its producer", live.prodSeq, want)
	}

	crash := t.TempDir()
	sess.mu.Lock()
	copyDir(t, filepath.Join(dir, "sessions", "poison"), filepath.Join(crash, "sessions", "poison"))
	sess.mu.Unlock()
	drainNow(t, svc)

	rec, _ := newDurableService(crash)
	defer drainNow(t, rec)
	stats, err := rec.Recover()
	if err != nil || stats.Records != 4 {
		t.Fatalf("recover: %+v, %v; want all 4 records replayed", stats, err)
	}
	recSess, err := rec.Session("poison")
	if err != nil {
		t.Fatalf("session after recovery: %v", err)
	}
	if replayed := observe(t, recSess); !reflect.DeepEqual(replayed, live) {
		t.Fatalf("replay diverged from the live session\n  live:     %+v %v %v\n  replayed: %+v %v %v",
			live.verdict, live.line, live.prodSeq, replayed.verdict, replayed.line, replayed.prodSeq)
	}
	p, _, err := recSess.Snapshot()
	if err != nil {
		t.Fatalf("pattern: %v", err)
	}
	rep, err := rgraph.CheckRDT(p, DefaultMaxViolations)
	if err != nil {
		t.Fatalf("batch check: %v", err)
	}
	compareVerdict(t, sess.Verdict(0), rep)
}

// TestGroupCommitSyncFailure pins invariant (a): when the fsync of a
// group fails, every mutating batch of the group reports ErrDegraded,
// none is applied or has its watermark advanced, the barrier behind them
// reports the failure too, and a restart recovers the session clean at
// the last committed batch.
func TestGroupCommitSyncFailure(t *testing.T) {
	dir := t.TempDir()
	svc, reg := newDurableService(dir)
	sess := mustCreate(t, svc, "sick", 2)
	if errs := enqueueGroup(t, sess, []frame{{"p", 1, []Event{{Op: OpCheckpoint, Proc: 0}, {Op: OpCheckpoint, Proc: 1}}}}); errs[0] != nil {
		t.Fatalf("committed frame: %v", errs[0])
	}
	committed := observe(t, sess)
	sessDir := filepath.Join(dir, "sessions", "sick")
	committedWAL, committedLog := walSize(t, sessDir), len(sess.log)

	// The medium dies between the appends and the fsync: the fsync fails,
	// and the unsynced bytes are gone, as they are after a real EIO.
	testHookLogged = func(string) {
		if err := os.Truncate(filepath.Join(sessDir, "wal.log"), committedWAL); err != nil {
			t.Errorf("drop unsynced tail: %v", err)
		}
		_ = sess.dur.wal.Close()
	}
	defer func() { testHookLogged = nil }()
	errs := enqueueGroup(t, sess, []frame{
		{"p", 2, []Event{{Op: OpSend, Proc: 0, Peer: 1, Msg: 0}}},
		{"p", 3, []Event{{Op: OpDeliver, Msg: 0}}},
		{"q", 1, []Event{{Op: OpCheckpoint, Proc: 1}}},
	})
	testHookLogged = nil
	for i, err := range errs {
		if !errors.Is(err, ErrDegraded) {
			t.Fatalf("frame %d of the failed group: %v, want ErrDegraded", i, err)
		}
	}
	if err := flush(t, sess); !errors.Is(err, ErrDegraded) {
		t.Fatalf("barrier behind the failed group: %v, want ErrDegraded", err)
	}
	if syncs := reg.Snapshot().CounterValue("rdt_wal_syncs_total"); syncs != 1 {
		t.Fatalf("rdt_wal_syncs_total = %d, want 1: a failed fsync commits nothing", syncs)
	}
	after := observe(t, sess)
	if v := sess.Verdict(0); v.State != StateDegraded {
		t.Fatalf("state %q, want degraded", v.State)
	}
	// Only the state and its error may differ from the committed verdict.
	after.verdict.State, after.verdict.Error = committed.verdict.State, committed.verdict.Error
	if !reflect.DeepEqual(after, committed) || len(sess.log) != committedLog {
		t.Fatalf("the failed group left a mark\n  committed: %+v %v log %d\n  after:     %+v %v log %d",
			committed.verdict, committed.prodSeq, committedLog, after.verdict, after.prodSeq, len(sess.log))
	}
	drainNow(t, svc)

	rec, _ := newDurableService(dir)
	defer drainNow(t, rec)
	if _, err := rec.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	got, err := rec.Session("sick")
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	if recovered := observe(t, got); !reflect.DeepEqual(recovered, committed) {
		t.Fatalf("restart did not recover the last committed batch\n  committed: %+v %v\n  recovered: %+v %v",
			committed.verdict, committed.prodSeq, recovered.verdict, recovered.prodSeq)
	}
	if errs := enqueueGroup(t, got, []frame{{"p", 2, []Event{{Op: OpCheckpoint, Proc: 0}}}}); errs[0] != nil {
		t.Fatalf("ingest after recovery: %v", errs[0])
	}
}

// TestGroupCommitCloseMidDrain closes the queue (Passivate: closeQueue,
// then the worker's retirement) while producers keep it full, so the
// close lands inside a group's drain on some rounds. Every accepted
// batch must be answered exactly once, each producer's answers in its
// send order (invariant b), before Passivate returns; and what was
// answered nil must be exactly what the reactivated session holds.
func TestGroupCommitCloseMidDrain(t *testing.T) {
	dir := t.TempDir()
	svc, _ := newDurableService(dir)
	defer drainNow(t, svc)
	rounds := 20
	if testing.Short() {
		rounds = 5
	}
	for round := 0; round < rounds; round++ {
		id := fmt.Sprintf("close-%d", round)
		sess := mustCreate(t, svc, id, 2)
		var accepted, answered, applied atomic.Int64
		var wg sync.WaitGroup
		for p := 0; p < 2; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				last := -1 // the producer's last answered batch; only the worker touches it
				for n := 0; ; {
					i, events := n, make([]Event, 1+n%4)
					for k := range events {
						events[k] = Event{Op: OpCheckpoint, Proc: p}
					}
					err := sess.EnqueueNotify(events, func(err error) {
						if i <= last {
							t.Errorf("producer %d: batch %d answered after batch %d", p, i, last)
						}
						last = i
						answered.Add(1)
						if err == nil {
							applied.Add(int64(len(events)))
						}
					})
					switch {
					case err == nil:
						accepted.Add(1)
						n++
					case errors.Is(err, ErrBackpressure): // try the same batch again
					case errors.Is(err, ErrClosed):
						return
					default:
						t.Errorf("producer %d: %v", p, err)
						return
					}
				}
			}(p)
		}
		waitFor(t, func() bool { return answered.Load() > int64(10*round) })
		if !svc.Passivate(id, "idle") {
			t.Fatalf("round %d: passivate failed", round)
		}
		wg.Wait()
		if accepted.Load() != answered.Load() {
			t.Fatalf("round %d: %d batches accepted, %d answered by the time the worker retired",
				round, accepted.Load(), answered.Load())
		}
		back, err := svc.Session(id)
		if err != nil {
			t.Fatalf("round %d: reactivate: %v", round, err)
		}
		if got := back.Verdict(0).EventsApplied; got != applied.Load() {
			t.Fatalf("round %d: reactivated session holds %d events, %d were acknowledged", round, got, applied.Load())
		}
		svc.Evict(id, "explicit")
	}
}
