package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/rdt-go/rdt/internal/obs"
	"github.com/rdt-go/rdt/internal/rgraph"
	"github.com/rdt-go/rdt/internal/trace"
	"github.com/rdt-go/rdt/internal/wal"
)

func traceBytes(t *testing.T, sess *Session) []byte {
	t.Helper()
	p, _, err := sess.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	var buf bytes.Buffer
	if err := trace.Save(&buf, p); err != nil {
		t.Fatalf("save trace: %v", err)
	}
	return buf.Bytes()
}

// TestWALDamageRecoversPrefix: one flipped byte inside record k of a
// multi-record WAL costs the session record k and everything after it,
// and nothing before it. The session comes back holding exactly records
// 0..k-1 — verdict, recovery line and pattern those of an uninterrupted
// run of that prefix, which the batch checker agrees with — the damaged
// suffix is cut and counted, and ingestion carries on from the prefix to
// the verdict of the whole run.
func TestWALDamageRecoversPrefix(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(29))
	events := genWorkload(rng, 3, 160)

	svc, _ := newDurableService(dir)
	sess := mustCreate(t, svc, "rot", 3)
	feed(t, rng, sess, events)
	want := sess.Verdict(0)
	drainNow(t, svc)

	walPath := filepath.Join(dir, "sessions", "rot", "wal.log")
	var offsets []int64 // where each record's frame starts
	var counts []int    // its events
	var off int64
	if _, torn, err := wal.ScanFrom(walPath, 0, func(payload []byte) error {
		rec, err := decodeRecord(payload)
		offsets, counts = append(offsets, off), append(counts, rec.count)
		off += int64(wal.HeaderSize + len(payload))
		return err
	}); err != nil || torn {
		t.Fatalf("scan wal: torn=%v %v", torn, err)
	}
	if len(offsets) < 4 {
		t.Fatalf("the WAL holds %d records; the test needs several", len(offsets))
	}
	k := len(offsets) / 2
	prefix := 0
	for _, c := range counts[:k] {
		prefix += c
	}
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatalf("read wal: %v", err)
	}
	data[offsets[k]+wal.HeaderSize+1] ^= 0x40 // inside record k's payload
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatalf("write wal: %v", err)
	}

	rec, reg := newDurableService(dir)
	defer drainNow(t, rec)
	stats, err := rec.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if stats.Sessions != 1 || stats.Records != int64(k) || stats.Truncations != 1 {
		t.Fatalf("recover stats %+v: want the session back with %d records and one truncation", stats, k)
	}
	if v := reg.Snapshot().CounterValue("rdt_wal_truncations_total"); v != 1 {
		t.Fatalf("rdt_wal_truncations_total = %d, want 1", v)
	}
	if got := walSize(t, filepath.Dir(walPath)); got != offsets[k] {
		t.Fatalf("the WAL is %d bytes, want it cut at record %d (%d bytes)", got, k, offsets[k])
	}
	got, err := rec.Session("rot")
	if err != nil {
		t.Fatalf("session: %v", err)
	}

	ref, _ := testService(t, Config{})
	refSess := mustCreate(t, ref, "rot", 3)
	feed(t, rng, refSess, events[:prefix])
	gv := got.Verdict(0)
	if gv.EventsApplied != int64(prefix) || !sameVerdict(t, gv, refSess.Verdict(0)) {
		t.Fatalf("verdict after the damage:\n  %s\n  want the prefix of %d events: %s",
			verdictJSON(t, gv), prefix, verdictJSON(t, refSess.Verdict(0)))
	}
	gl, gerr := got.Line()
	rl, rerr := refSess.Line()
	if gerr != nil || rerr != nil || !reflect.DeepEqual(gl, rl) {
		t.Fatalf("recovery line %+v (%v), want %+v (%v)", gl, gerr, rl, rerr)
	}
	if gt, rt := traceBytes(t, got), traceBytes(t, refSess); !bytes.Equal(gt, rt) {
		t.Fatalf("pattern after the damage:\n  %s\n  want\n  %s", gt, rt)
	}
	p, _, err := got.Snapshot()
	if err != nil {
		t.Fatalf("pattern: %v", err)
	}
	rep, err := rgraph.CheckRDT(p, DefaultMaxViolations)
	if err != nil {
		t.Fatalf("batch check: %v", err)
	}
	compareVerdict(t, gv, rep)

	feed(t, rng, got, events[prefix:])
	if gv := got.Verdict(0); !sameVerdict(t, gv, want) {
		t.Fatalf("ingestion after the damage diverged:\n  %s\n  %s", verdictJSON(t, gv), verdictJSON(t, want))
	}
}

// tracedViolations counts the EventViolation records in a service's
// tracer.
func tracedViolations(t *testing.T, svc *Service) int {
	t.Helper()
	tr := svc.cfg.Tracer
	if tr.Dropped() != 0 {
		t.Fatalf("the tracer dropped %d events; the count would be short", tr.Dropped())
	}
	n := 0
	for _, ev := range tr.Tail(tr.Len()) {
		if ev.Type == obs.EventViolation {
			n++
		}
	}
	return n
}

// TestReplayIsSilent: loading a session replays its WAL through the live
// apply path, but reports nothing — a violation is counted and traced
// once, when it is first applied live, and a replayed event is not
// ingested again — after a restart from a kill -9 image and after a
// passivate→reactivate alike. New violating events then count exactly
// once.
func TestReplayIsSilent(t *testing.T) {
	live, crash := t.TempDir(), t.TempDir()
	rng := rand.New(rand.NewSource(5))
	events := genWorkload(rng, 3, 120)
	before, after := events[:60], events[60:]

	svc, reg := newDurableService(live)
	sess := mustCreate(t, svc, "quiet", 3)
	feed(t, rng, sess, before)
	sess.mu.Lock()
	violations := sess.inc.Violations()
	copyDir(t, filepath.Join(live, "sessions", "quiet"), filepath.Join(crash, "sessions", "quiet"))
	sess.mu.Unlock()
	want := sess.Verdict(0)
	if violations == 0 {
		t.Fatal("the workload has no violations; the test lost its coverage")
	}
	counters := func(reg *obs.Registry) [2]int64 {
		snap := reg.Snapshot()
		return [2]int64{snap.CounterValue("rdt_service_violations_total"), snap.CounterValue("rdt_service_events_ingested_total")}
	}
	if got, want := counters(reg), [2]int64{int64(violations), int64(len(before))}; got != want {
		t.Fatalf("live counters (violations, ingested) = %v, want %v", got, want)
	}
	drainNow(t, svc)

	rec, reg := newDurableService(crash)
	defer drainNow(t, rec)
	if stats, err := rec.Recover(); err != nil || stats.Events != int64(len(before)) {
		t.Fatalf("recover: %+v, %v: want all %d events replayed", stats, err, len(before))
	}
	got, err := rec.Session("quiet")
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	for step := range []string{"recover", "reactivate"} {
		if step == 1 {
			if !rec.Passivate("quiet", "idle") {
				t.Fatal("passivate: session was not live")
			}
			if got, err = rec.Session("quiet"); err != nil {
				t.Fatalf("reactivate: %v", err)
			}
		}
		if c := counters(reg); c != [2]int64{} {
			t.Fatalf("after load %d: counters (violations, ingested) = %v, want nothing counted", step, c)
		}
		if n := tracedViolations(t, rec); n != 0 {
			t.Fatalf("after load %d: %d violations traced, want none", step, n)
		}
		if gv := got.Verdict(0); verdictJSON(t, gv) != verdictJSON(t, want) {
			t.Fatalf("after load %d: verdict changed:\n  %s\n  %s", step, verdictJSON(t, gv), verdictJSON(t, want))
		}
	}

	feed(t, rng, got, after)
	got.mu.Lock()
	fresh := got.inc.Violations() - violations
	got.mu.Unlock()
	if fresh == 0 {
		t.Fatal("the second half has no violations; the test lost its coverage")
	}
	if c, want := counters(reg), [2]int64{int64(fresh), int64(len(after))}; c != want {
		t.Fatalf("counters (violations, ingested) after new traffic = %v, want %v", c, want)
	}
	if n := tracedViolations(t, rec); n != fresh {
		t.Fatalf("%d violations traced after new traffic, want %d", n, fresh)
	}
}

// TestSnapshottedDataDirRecovers: testdata/snapshotted is a data
// directory written by the last build that took snapshots — "passive"
// passivated with a final snapshot and nothing past it, "killed" taken by
// kill -9 with a WAL tail past its snapshot, "poisoned" poisoned mid-batch
// and then sealed — and want/ holds the verdict, recovery line and trace
// that build served after recovering it. Recovered from the WALs alone,
// the snap_*.bin files beside them unread, or shipped in whole through
// ImportSession, which skips them, every session serves the same bytes;
// its export is the two files a session is.
func TestSnapshottedDataDirRecovers(t *testing.T) {
	const fixture = "testdata/snapshotted"
	ids := []string{"killed", "passive", "poisoned"}
	dir := t.TempDir()
	copyDir(t, filepath.Join(fixture, "sessions"), filepath.Join(dir, "sessions"))
	recovered, _ := newDurableService(dir)
	defer drainNow(t, recovered)
	stats, err := recovered.Recover()
	// 4 + 3 + 4 records: every one replayed, none cut.
	if err != nil || stats.Sessions != 3 || stats.Records != 11 || stats.Truncations != 0 || stats.QuarantinedSessions != 0 {
		t.Fatalf("recover: %+v, %v", stats, err)
	}
	imported, _ := newDurableService(t.TempDir())
	defer drainNow(t, imported)
	for _, id := range ids {
		files := map[string][]byte{}
		entries, err := os.ReadDir(filepath.Join(fixture, "sessions", id))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if files[e.Name()], err = os.ReadFile(filepath.Join(fixture, "sessions", id, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
		if err := imported.ImportSession(id, files); err != nil {
			t.Fatalf("import %s with its snapshots: %v", id, err)
		}
	}

	for _, svc := range []*Service{recovered, imported} {
		for _, id := range ids {
			sess, err := svc.Session(id)
			if err != nil {
				t.Fatalf("session %s: %v", id, err)
			}
			line, err := sess.Line()
			if err != nil {
				t.Fatalf("line %s: %v", id, err)
			}
			lineJSON, err := json.Marshal(line)
			if err != nil {
				t.Fatal(err)
			}
			for name, got := range map[string][]byte{
				"verdict": []byte(verdictJSON(t, sess.Verdict(0))),
				"line":    lineJSON,
				"trace":   traceBytes(t, sess),
			} {
				want, err := os.ReadFile(filepath.Join(fixture, "want", id+"."+name+".json"))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s %s:\n  got  %s\n  want %s", id, name, got, want)
				}
			}
		}
	}
	files, err := imported.ExportSession("killed")
	if err != nil || len(files) != 2 || files["meta.json"] == nil || files["wal.log"] == nil {
		t.Fatalf("export: %d files, %v: want meta.json and wal.log", len(files), err)
	}
}

// apiEvent is the API form of a typed event.
func apiEvent(e event) Event {
	switch e.op {
	case opCheckpoint:
		ev := Event{Op: OpCheckpoint, Proc: e.proc}
		if e.forced {
			ev.Kind = "forced"
		}
		return ev
	case opSend:
		return Event{Op: OpSend, Proc: e.proc, Peer: e.peer, Msg: e.msg}
	default:
		return Event{Op: OpDeliver, Msg: e.msg}
	}
}

// TestMixedWALRecovers: the "killed" session of testdata/snapshotted,
// whose WAL holds kind-1 records only, is recovered, ingests more — kind-2
// records behind the old ones in the same WAL — and is recovered again.
// Verdict, recovery line and trace then equal an in-memory run of every
// event, old and new.
func TestMixedWALRecovers(t *testing.T) {
	const fixture = "testdata/snapshotted/sessions/killed"
	var events []Event
	old := 0
	if _, torn, err := wal.ScanFrom(filepath.Join(fixture, "wal.log"), 0, func(payload []byte) error {
		rec, err := decodeRecord(payload)
		if err != nil || rec.kind != recordV1 {
			return fmt.Errorf("fixture record %d: kind %d, %v", old, rec.kind, err)
		}
		var e event
		for er := rec.reader(); er.next(&e); {
			events = append(events, apiEvent(e))
		}
		old++
		return nil
	}); err != nil || torn {
		t.Fatalf("scan fixture: torn=%v %v", torn, err)
	}
	rng := rand.New(rand.NewSource(11))
	more := genWorkload(rng, 3, 90)
	for i := range more {
		if more[i].Op != OpCheckpoint {
			more[i].Msg += 1000 // clear of the fixture's message ids
		}
	}

	dir := t.TempDir()
	copyDir(t, fixture, filepath.Join(dir, "sessions", "killed"))
	svc, _ := newDurableService(dir)
	if stats, err := svc.Recover(); err != nil || stats.Sessions != 1 || stats.Records != int64(old) {
		t.Fatalf("recover the fixture: %+v, %v", stats, err)
	}
	sess, err := svc.Session("killed")
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	feed(t, rng, sess, more)
	drainNow(t, svc)

	var kinds []byte
	if _, _, err := wal.ScanFrom(filepath.Join(dir, "sessions", "killed", "wal.log"), 0, func(payload []byte) error {
		kinds = append(kinds, payload[0])
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(kinds) <= old {
		t.Fatalf("the WAL holds %d records after ingesting more, the fixture %d", len(kinds), old)
	}
	for i, k := range kinds {
		want := byte(recordV2)
		if i < old {
			want = recordV1
		}
		if k != want {
			t.Fatalf("record %d is of kind %d: want %d kind-1 records, then kind 2 only", i, k, old)
		}
	}
	rec, _ := newDurableService(dir)
	defer drainNow(t, rec)
	if stats, err := rec.Recover(); err != nil || stats.Records != int64(len(kinds)) || stats.Truncations != 0 {
		t.Fatalf("recover the mixed WAL: %+v, %v", stats, err)
	}
	got, err := rec.Session("killed")
	if err != nil {
		t.Fatalf("session: %v", err)
	}

	ref, _ := testService(t, Config{})
	refSess := mustCreate(t, ref, "killed", 3)
	feed(t, rng, refSess, append(events, more...))
	if gv, rv := got.Verdict(0), refSess.Verdict(0); !sameVerdict(t, gv, rv) || gv.EventsApplied != int64(len(events)+len(more)) {
		t.Fatalf("verdict\n  %s\n  want %s", verdictJSON(t, gv), verdictJSON(t, rv))
	}
	gl, gerr := got.Line()
	rl, rerr := refSess.Line()
	if gerr != nil || rerr != nil || !reflect.DeepEqual(gl, rl) {
		t.Fatalf("recovery line %+v (%v), want %+v (%v)", gl, gerr, rl, rerr)
	}
	if gt, rt := traceBytes(t, got), traceBytes(t, refSess); !bytes.Equal(gt, rt) {
		t.Fatalf("trace\n  %s\n  want %s", gt, rt)
	}
}

// TestEnqueueNeverWaitsOnPersistence parks the worker where it holds
// the session lock across disk I/O (right after a WAL append) and
// requires admission — accept or backpressure — to return regardless: a
// stream connection multiplexes many sessions through one read loop, so
// an enqueue that waits on one session's fsync stalls them all.
func TestEnqueueNeverWaitsOnPersistence(t *testing.T) {
	svc, _ := newDurableService(t.TempDir())
	sess := mustCreate(t, svc, "parked", 2)
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	testHookAppended = func(string) {
		once.Do(func() {
			close(parked)
			<-release
		})
	}
	defer func() {
		drainNow(t, svc) // the worker reads the hook until it has exited
		testHookAppended = nil
	}()

	ck := []Event{{Op: OpCheckpoint, Proc: 0}}
	if err := sess.Enqueue(ck); err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	<-parked
	done := make(chan error, 1)
	go func() {
		err := sess.Enqueue(ck)
		if err == nil {
			_, err = sess.EnqueueSeq("p", 1, ck, false, nil)
		}
		sess.closeQueue() // nor may eviction wait on the worker
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("enqueue while the worker is parked: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Error("enqueue waited on a worker parked in persistence")
	}
	close(release)
}

// TestQueriesNeverWaitOnPersistence parks the worker between a group's
// WAL append and its fsync and requires every query to return
// regardless, with the state before the group: only apply holds the
// session lock, so no read waits on the disk.
func TestQueriesNeverWaitOnPersistence(t *testing.T) {
	svc, _ := newDurableService(t.TempDir())
	sess := mustCreate(t, svc, "parked", 2)
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	testHookLogged = func(string) {
		once.Do(func() {
			close(parked)
			<-release
		})
	}
	defer func() {
		drainNow(t, svc) // the worker reads the hook until it has exited
		testHookLogged = nil
	}()

	if err := sess.Enqueue([]Event{{Op: OpCheckpoint, Proc: 0}}); err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	<-parked
	for _, q := range []struct {
		name string
		run  func() error
	}{
		{"Verdict", func() error {
			if v := sess.Verdict(0); v.EventsApplied != 0 {
				return fmt.Errorf("%d events applied before their fsync", v.EventsApplied)
			}
			return nil
		}},
		{"Info", func() error { sess.Info(); return nil }},
		{"Line", func() error { _, err := sess.Line(); return err }},
		{"Snapshot", func() error { _, _, err := sess.Snapshot(); return err }},
		{"Explain", func() error { _, _, err := sess.Explain(0); return err }},
	} {
		done := make(chan error, 1)
		go func() { done <- q.run() }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s while the worker is parked: %v", q.name, err)
			}
		case <-time.After(2 * time.Second):
			t.Errorf("%s waited on a worker parked before its fsync", q.name)
		}
	}
	close(release)
}

// TestStateOfDirMatchesLoad: on kill -9 images taken at the crash seams,
// the counting peek ImportSession compares copies with reports the
// watermarks and event count a full load of the same image restores —
// also for a session poisoned by an unknown delivery, whose WAL holds
// events the checker refused.
func TestStateOfDirMatchesLoad(t *testing.T) {
	seeds := 90
	if testing.Short() {
		seeds = 30
	}
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			n := 2 + rng.Intn(3)
			events := genWorkload(rng, n, 10+rng.Intn(40))
			mode := seed % crashModes
			trigger := 1 + rng.Intn(8)
			if seed%3 == 2 {
				at := rng.Intn(len(events))
				events = append(events[:at:at], append([]Event{{Op: OpDeliver, Msg: 1 << 30}}, events[at:]...)...)
			}
			id := fmt.Sprintf("peek-%d", seed)

			root := t.TempDir()
			liveDir, crashDir := filepath.Join(root, "live"), filepath.Join(root, "crash")
			image := filepath.Join(crashDir, "sessions", id)
			svc, _ := newDurableService(liveDir)

			// The worker is the only goroutine that reaches the hooks, so the
			// counters need no lock; the copy runs under the session lock.
			fired, captured := 0, false
			capture := func(sid string) {
				if fired++; sid == id && fired >= trigger && !captured {
					captured = true
					copyDir(t, filepath.Join(liveDir, "sessions", id), image)
				}
			}
			switch mode {
			case crashAfterAppend:
				testHookAppended = capture
			case crashAfterApply:
				testHookApplied = capture
			}
			defer func() {
				testHookAppended, testHookApplied = nil, nil
			}()

			sess := mustCreate(t, svc, id, n)
			seqs := map[string]uint64{}
			for len(events) > 0 {
				k := min(1+rng.Intn(6), len(events))
				producer := fmt.Sprintf("p%d", rng.Intn(2))
				seqs[producer]++
				dup, err := retrySeq(sess, producer, seqs[producer], events[:k])
				if errors.Is(err, ErrFailed) {
					break // poisoned: the session takes no more events
				}
				if dup || err != nil {
					t.Fatalf("enqueue seq: dup=%v err=%v", dup, err)
				}
				events = events[k:]
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := sess.Seal(ctx); err != nil {
				t.Fatalf("seal: %v", err)
			}
			testHookAppended, testHookApplied = nil, nil
			if !captured {
				sess.mu.Lock()
				copyDir(t, filepath.Join(liveDir, "sessions", id), image)
				sess.mu.Unlock()
			}
			drainNow(t, svc)

			peek, err := stateOfDir(image)
			if err != nil {
				t.Fatalf("stateOfDir: %v", err)
			}
			rec, _ := newDurableService(crashDir)
			defer drainNow(t, rec)
			loaded, _, err := rec.loadSession(id)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			defer loaded.dur.closeLocked()
			full := loaded.durableState()
			if peek.events != full.events || !reflect.DeepEqual(peek.prodSeq, full.prodSeq) {
				t.Fatalf("mode %d trigger %d: stateOfDir %+v, full load %+v", mode, trigger, peek, full)
			}
		})
	}
}
