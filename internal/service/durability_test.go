package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/rdt-go/rdt/internal/obs"
	"github.com/rdt-go/rdt/internal/rgraph"
	"github.com/rdt-go/rdt/internal/wal"
)

// newDurableService builds a durable service without auto-drain; the
// caller controls when it stops (durability tests restart services).
func newDurableService(dataDir string) (*Service, *obs.Registry) {
	reg := obs.NewRegistry()
	svc, err := New(Config{
		DataDir:  dataDir,
		Registry: reg,
		Tracer:   obs.NewTracer(256),
	})
	if err != nil {
		panic(err)
	}
	return svc, reg
}

func drainNow(t *testing.T, svc *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// genWorkload produces a valid random event stream: checkpoints,
// sends with fresh client message ids, deliveries of in-flight ones.
func genWorkload(rng *rand.Rand, n, steps int) []Event {
	var events []Event
	var inFlight []int
	nextMsg := 0
	for s := 0; s < steps; s++ {
		switch k := rng.Intn(10); {
		case k < 3:
			ev := Event{Op: OpCheckpoint, Proc: rng.Intn(n)}
			if rng.Intn(4) == 0 {
				ev.Kind = "forced"
			}
			events = append(events, ev)
		case k < 7 || len(inFlight) == 0:
			from := rng.Intn(n)
			to := rng.Intn(n - 1)
			if to >= from {
				to++
			}
			events = append(events, Event{Op: OpSend, Proc: from, Peer: to, Msg: nextMsg})
			inFlight = append(inFlight, nextMsg)
			nextMsg++
		default:
			i := rng.Intn(len(inFlight))
			events = append(events, Event{Op: OpDeliver, Msg: inFlight[i]})
			inFlight = append(inFlight[:i], inFlight[i+1:]...)
		}
	}
	return events
}

// feed pushes events through the session in irregular batches, a few
// at a time behind a gate the worker is parked on — so they are queued
// together and the worker commits them as one group — and flushes, so
// everything is applied (and, on a durable service, persisted) when it
// returns.
func feed(t *testing.T, rng *rand.Rand, sess *Session, events []Event) {
	t.Helper()
	for len(events) > 0 {
		gate := make(chan struct{})
		err := sess.enqueue(batch{gate: gate})
		for n := 1 + rng.Intn(5); err == nil && n > 0 && len(events) > 0; n-- {
			k := min(1+rng.Intn(6), len(events))
			if err = sess.Enqueue(events[:k]); err == nil {
				events = events[k:]
			}
		}
		close(gate)
		if errors.Is(err, ErrBackpressure) {
			err = flush(t, sess)
		}
		if err != nil {
			t.Fatalf("feed: %v", err)
		}
	}
	if err := flush(t, sess); err != nil {
		t.Fatalf("flush: %v", err)
	}
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatalf("mkdir %s: %v", dst, err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatalf("read %s: %v", src, err)
	}
	for _, e := range entries {
		sp, dp := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if e.IsDir() {
			copyDir(t, sp, dp)
			continue
		}
		data, err := os.ReadFile(sp)
		if err != nil {
			t.Fatalf("read %s: %v", sp, err)
		}
		if err := os.WriteFile(dp, data, 0o644); err != nil {
			t.Fatalf("write %s: %v", dp, err)
		}
	}
}

func verdictJSON(t *testing.T, v *Verdict) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal verdict: %v", err)
	}
	return string(data)
}

// stripSession blanks the session id inside a verdict JSON so verdicts
// of differently-named sessions compare.
func sameVerdict(t *testing.T, a, b *Verdict) bool {
	t.Helper()
	ca, cb := *a, *b
	ca.Session, cb.Session = "", ""
	return verdictJSON(t, &ca) == verdictJSON(t, &cb)
}

// TestDurableRestartRoundTrip is the basic end-to-end: ingest, drain,
// restart, and the recovered session answers with the identical
// verdict, recovery line, and state — by replaying its whole WAL, the
// only thing a session keeps on disk.
func TestDurableRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(41))
	events := genWorkload(rng, 3, 120)

	svc1, _ := newDurableService(dir)
	sess := mustCreate(t, svc1, "alpha", 3)
	feed(t, rng, sess, events)
	want := sess.Verdict(0)
	wantLine, err := sess.Line()
	if err != nil {
		t.Fatalf("line: %v", err)
	}
	drainNow(t, svc1)

	svc2, reg2 := newDurableService(dir)
	stats, err := svc2.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer drainNow(t, svc2)
	if stats.Sessions != 1 {
		t.Fatalf("recovered %d sessions, want 1", stats.Sessions)
	}
	if stats.Records == 0 || stats.Events != want.EventsApplied {
		t.Fatalf("replayed %d records / %d events, want the whole WAL (%d events)", stats.Records, stats.Events, want.EventsApplied)
	}
	got, err := svc2.Session("alpha")
	if err != nil {
		t.Fatalf("session after recover: %v", err)
	}
	if gv := got.Verdict(0); verdictJSON(t, gv) != verdictJSON(t, want) {
		t.Fatalf("verdict changed across restart:\n  %s\n  %s", verdictJSON(t, gv), verdictJSON(t, want))
	}
	gotLine, err := got.Line()
	if err != nil {
		t.Fatalf("line after recover: %v", err)
	}
	if !reflect.DeepEqual(gotLine, wantLine) {
		t.Fatalf("recovery line changed across restart: %+v != %+v", gotLine, wantLine)
	}
	if v := reg2.Snapshot().CounterValue("rdt_wal_replay_records_total"); v != stats.Records {
		t.Fatalf("rdt_wal_replay_records_total = %d, want %d", v, stats.Records)
	}
}

// crashModes are the injection points of the differential test, all
// inside the worker's commit of a group.
const (
	crashBeforeSync  = iota // group's records appended, fsync not returned: any prefix of them is on disk
	crashAfterAppend        // fsync returned, batch not yet applied
	crashAfterApply         // batch applied
	crashMidGroup           // batch applied, later records of its group on disk unapplied
	crashModes
)

// walSize is the length of a session directory's WAL.
func walSize(t *testing.T, sessDir string) int64 {
	t.Helper()
	st, err := os.Stat(filepath.Join(sessDir, "wal.log"))
	if err != nil {
		t.Fatalf("stat wal: %v", err)
	}
	return st.Size()
}

// TestCrashPointDifferential is the heart of the durability story:
// across 500+ seeded runs it crashes a durable session at a seeded
// point (a directory copy taken while the worker, the directory's only
// writer, is parked in a hook is a faithful kill -9 image), restarts from the image, feeds the not-yet-applied suffix,
// and requires the verdict, recovery line, and witness output to be
// bit-identical to an uninterrupted reference run — which itself
// matches the batch checker. feed queues several batches at a time, so
// the points fall inside multi-batch commit groups.
func TestCrashPointDifferential(t *testing.T) {
	seeds := 500
	if testing.Short() {
		seeds = 60
	}
	midGroup := 0 // images taken with unapplied records of the group on disk
	defer func() {
		if midGroup == 0 && !t.Failed() {
			t.Fatal("no seed crashed inside a multi-batch group: feed no longer builds groups")
		}
	}()
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%03d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			n := 2 + rng.Intn(3)
			events := genWorkload(rng, n, 10+rng.Intn(40))
			seal := rng.Intn(2) == 0
			mode := rng.Intn(crashModes)
			trigger := 1 + rng.Intn(8)
			if mode == crashMidGroup {
				trigger = 1 + trigger%3 // its points are rarer: one per batch that is not its group's last
			}
			tear := rng.Float64() // crashBeforeSync: the share of the unsynced tail that made it to disk
			id := fmt.Sprintf("crash-%d", seed)

			root := t.TempDir()
			liveDir := filepath.Join(root, "live")
			crashDir := filepath.Join(root, "crash")
			svc, _ := newDurableService(liveDir)

			// The hooks run on the worker goroutine, the directory's only
			// writer (Logged without the session lock, Appended and Applied
			// with it); the copy they take is exactly what kill -9 would leave.
			var hookMu sync.Mutex
			fired := 0
			captured := false
			var sess *Session
			var appliedAtCrash int64 // what the live session had applied when the image was taken
			liveSess := filepath.Join(liveDir, "sessions", id)
			crashSess := filepath.Join(crashDir, "sessions", id)
			capture := func() bool {
				hookMu.Lock()
				defer hookMu.Unlock()
				if fired++; fired == trigger && !captured {
					captured = true
					appliedAtCrash = sess.applied // race-free: the hook runs on the worker, the field's only writer
					copyDir(t, liveSess, crashSess)
					return true
				}
				return false
			}
			forSession := func(fn func()) func(string) {
				return func(sid string) {
					if sid == id {
						fn()
					}
				}
			}
			switch mode {
			case crashBeforeSync:
				// Whatever the WAL held when a batch was last about to be
				// applied had been fsync'd; the records appended since have
				// not, and a crash keeps any prefix of their bytes.
				var synced int64
				testHookAppended = forSession(func() { synced = walSize(t, liveSess) })
				testHookLogged = forSession(func() {
					if capture() {
						keep := synced + int64(tear*float64(walSize(t, crashSess)-synced+1))
						if err := os.Truncate(filepath.Join(crashSess, "wal.log"), keep); err != nil {
							t.Errorf("tear wal: %v", err)
						}
					}
				})
			case crashAfterAppend:
				testHookAppended = forSession(func() { capture() })
			case crashAfterApply:
				testHookApplied = forSession(func() { capture() })
			case crashMidGroup:
				// Every logged batch is one WAL record and one call here: more
				// records than calls means records of this group wait unapplied.
				calls := 0
				testHookApplied = forSession(func() {
					calls++
					records := 0
					if _, _, err := wal.ScanFrom(filepath.Join(liveSess, "wal.log"), 0, func([]byte) error {
						records++
						return nil
					}); err != nil {
						t.Errorf("scan wal: %v", err)
					}
					if records > calls && capture() {
						midGroup++
					}
				})
			}
			resetHooks := func() {
				testHookLogged, testHookAppended, testHookApplied = nil, nil, nil
			}
			defer resetHooks()

			sess = mustCreate(t, svc, id, n)
			feed(t, rng, sess, events)
			if seal {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				if err := sess.Seal(ctx); err != nil {
					t.Fatalf("seal: %v", err)
				}
				cancel()
			}
			hookMu.Lock()
			if !captured {
				// The seeded point was past the end of the run; crash at the
				// very end instead.
				captured = true
				appliedAtCrash = sess.Verdict(0).EventsApplied
				copyDir(t, liveSess, crashSess)
			}
			hookMu.Unlock()
			resetHooks()
			drainNow(t, svc)

			// Reference: the same stream, uninterrupted, in memory only.
			ref, _ := testService(t, Config{})
			refSess := mustCreate(t, ref, id, n)
			feed(t, rng, refSess, events)
			if seal {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				if err := refSess.Seal(ctx); err != nil {
					t.Fatalf("reference seal: %v", err)
				}
				cancel()
			}

			// Restart from the crash image and finish the run.
			rec, _ := newDurableService(crashDir)
			defer drainNow(t, rec)
			if _, err := rec.Recover(); err != nil {
				t.Fatalf("recover from crash image: %v", err)
			}
			recSess, err := rec.Session(id)
			if err != nil {
				t.Fatalf("session after crash recovery: %v", err)
			}
			applied := int(recSess.Verdict(0).EventsApplied)
			if applied > len(events) {
				t.Fatalf("recovered %d events, only %d were sent", applied, len(events))
			}
			if int64(applied) < appliedAtCrash {
				t.Fatalf("mode %d: the image holds %d events but %d were applied when it was taken: memory ran ahead of the fsync",
					mode, applied, appliedAtCrash)
			}
			feed(t, rng, recSess, events[applied:])
			if seal {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				if err := recSess.Seal(ctx); err != nil {
					t.Fatalf("seal after recovery: %v", err)
				}
				cancel()
			}

			// Bit-identical observables: verdict, recovery line, witnesses —
			// and the reference itself agrees with the batch checker.
			gv, rv := recSess.Verdict(0), refSess.Verdict(0)
			if !sameVerdict(t, gv, rv) {
				t.Fatalf("mode %d trigger %d: verdict diverged\n  recovered: %s\n  reference: %s",
					mode, trigger, verdictJSON(t, gv), verdictJSON(t, rv))
			}
			gl, gerr := recSess.Line()
			rl, rerr := refSess.Line()
			if (gerr == nil) != (rerr == nil) || (gerr == nil && !reflect.DeepEqual(gl, rl)) {
				t.Fatalf("recovery line diverged: %+v (%v) != %+v (%v)", gl, gerr, rl, rerr)
			}
			_, gw, gerr := recSess.Explain(0)
			_, rw, rerr := refSess.Explain(0)
			if (gerr == nil) != (rerr == nil) || len(gw) != len(rw) {
				t.Fatalf("witnesses diverged: %d (%v) != %d (%v)", len(gw), gerr, len(rw), rerr)
			}
			for i := range gw {
				if gw[i].String() != rw[i].String() {
					t.Fatalf("witness %d diverged:\n  %s\n  %s", i, gw[i].String(), rw[i].String())
				}
			}
			p, _, err := refSess.Snapshot()
			if err != nil {
				t.Fatalf("reference snapshot: %v", err)
			}
			rep, err := rgraph.CheckRDT(p, DefaultMaxViolations)
			if err != nil {
				t.Fatalf("batch check: %v", err)
			}
			compareVerdict(t, gv, rep)
		})
	}
}

// TestTornWALTailRecovers damages the WAL tail the way a machine crash
// would (partial frame, flipped bit) and checks recovery truncates to
// the longest valid prefix — counting it — instead of failing.
func TestTornWALTailRecovers(t *testing.T) {
	for _, damage := range []string{"partial", "bitflip"} {
		t.Run(damage, func(t *testing.T) {
			dir := t.TempDir()
			rng := rand.New(rand.NewSource(7))
			events := genWorkload(rng, 2, 60)

			// Copy the tree mid-flight, like the crash harness, then damage
			// the copy's WAL.
			svc, _ := newDurableService(dir)
			sess := mustCreate(t, svc, "torn", 2)
			feed(t, rng, sess, events)
			before := sess.Verdict(0)
			crash := t.TempDir()
			sess.mu.Lock()
			copyDir(t, filepath.Join(dir, "sessions", "torn"), filepath.Join(crash, "sessions", "torn"))
			sess.mu.Unlock()
			drainNow(t, svc)

			walPath := filepath.Join(crash, "sessions", "torn", "wal.log")
			data, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatalf("read wal: %v", err)
			}
			if len(data) < 16 {
				t.Fatalf("wal too small to damage: %d bytes", len(data))
			}
			switch damage {
			case "partial":
				data = data[:len(data)-3]
			case "bitflip":
				data[len(data)-2] ^= 0x20
			}
			if err := os.WriteFile(walPath, data, 0o644); err != nil {
				t.Fatalf("write damaged wal: %v", err)
			}

			rec, reg := newDurableService(crash)
			defer drainNow(t, rec)
			stats, err := rec.Recover()
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			if stats.Truncations != 1 {
				t.Fatalf("truncations = %d, want 1", stats.Truncations)
			}
			if v := reg.Snapshot().CounterValue("rdt_wal_truncations_total"); v != 1 {
				t.Fatalf("rdt_wal_truncations_total = %d, want 1", v)
			}
			got, err := rec.Session("torn")
			if err != nil {
				t.Fatalf("session: %v", err)
			}
			v := got.Verdict(0)
			if v.State == StateFailed {
				t.Fatalf("recovered session failed: %s", v.Error)
			}
			if v.EventsApplied >= before.EventsApplied && damage == "partial" {
				// The damaged record was lost, so the recovered prefix must
				// be strictly shorter (the last record held >= 1 event).
				t.Fatalf("events applied %d, want < %d", v.EventsApplied, before.EventsApplied)
			}
			// The session still ingests after truncation.
			if err := got.Enqueue([]Event{{Op: OpCheckpoint, Proc: 0}}); err != nil {
				t.Fatalf("ingest after truncation: %v", err)
			}
			if err := flush(t, got); err != nil {
				t.Fatalf("flush after truncation: %v", err)
			}
		})
	}
}

// TestPassivationReactivation: idle eviction of a durable session keeps
// its directory; the next lookup (as POST events would do) loads it
// back with identical state; an explicit delete removes the directory
// even when the session is passivated.
func TestPassivationReactivation(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(3))
	events := genWorkload(rng, 2, 80)

	svc, reg := newDurableService(dir)
	defer drainNow(t, svc)
	sess := mustCreate(t, svc, "nap", 2)
	feed(t, rng, sess, events)
	want := sess.Verdict(0)

	if !svc.Evict("nap", "idle") {
		t.Fatal("evict failed")
	}
	waitFor(t, func() bool {
		select {
		case <-sess.workerDone:
			return true
		default:
			return false
		}
	})
	if _, err := os.Stat(filepath.Join(dir, "sessions", "nap")); err != nil {
		t.Fatalf("passivation removed the directory: %v", err)
	}
	if svc.SessionCount() != 0 {
		t.Fatalf("session still live after passivation")
	}

	back, err := svc.Session("nap")
	if err != nil {
		t.Fatalf("reactivate: %v", err)
	}
	if gv := back.Verdict(0); verdictJSON(t, gv) != verdictJSON(t, want) {
		t.Fatalf("verdict changed across passivation:\n  %s\n  %s", verdictJSON(t, gv), verdictJSON(t, want))
	}
	if v := reg.Snapshot().CounterValue("rdt_service_sessions_reactivated_total"); v != 1 {
		t.Fatalf("reactivated counter = %d, want 1", v)
	}
	// The reactivated session keeps ingesting and persisting.
	if err := back.Enqueue([]Event{{Op: OpCheckpoint, Proc: 0}}); err != nil {
		t.Fatalf("ingest after reactivation: %v", err)
	}
	if err := flush(t, back); err != nil {
		t.Fatalf("flush after reactivation: %v", err)
	}

	// Explicit delete of a live session removes the directory.
	if !svc.Evict("nap", "explicit") {
		t.Fatal("explicit evict failed")
	}
	waitFor(t, func() bool {
		_, err := os.Stat(filepath.Join(dir, "sessions", "nap"))
		return errors.Is(err, os.ErrNotExist)
	})

	// And an explicit delete of a *passivated* session works too.
	again := mustCreate(t, svc, "nap2", 2)
	feed(t, rng, again, events[:10])
	svc.Evict("nap2", "idle")
	waitFor(t, func() bool {
		select {
		case <-again.workerDone:
			return true
		default:
			return false
		}
	})
	if !svc.Evict("nap2", "explicit") {
		t.Fatal("explicit evict of passivated session failed")
	}
	if _, err := os.Stat(filepath.Join(dir, "sessions", "nap2")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("passivated session directory survived explicit delete: %v", err)
	}
	if _, err := svc.Session("nap2"); !errors.Is(err, ErrNoSession) {
		t.Fatalf("deleted session still resolvable: %v", err)
	}
}

// TestDegradedSession forces a WAL append failure and checks the blast
// radius: that session turns read-only (507 semantics, degraded state,
// gauge raised), other sessions keep working, and a restart recovers
// the degraded session clean at its last committed batch.
func TestDegradedSession(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(13))
	svc, reg := newDurableService(dir)
	sess := mustCreate(t, svc, "sick", 2)
	healthy := mustCreate(t, svc, "well", 2)
	feed(t, rng, sess, genWorkload(rng, 2, 40))
	committed := sess.Verdict(0)

	// Close the WAL file under the session: the next append fails the
	// way a dying disk would.
	sess.mu.Lock()
	_ = sess.dur.wal.Close()
	sess.mu.Unlock()

	if err := sess.Enqueue([]Event{{Op: OpCheckpoint, Proc: 0}}); err != nil {
		t.Fatalf("enqueue into about-to-degrade session: %v", err)
	}
	err := flush(t, sess)
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("flush: %v, want ErrDegraded", err)
	}
	v := sess.Verdict(0)
	if v.State != StateDegraded || v.Error == "" {
		t.Fatalf("state %q error %q, want degraded with an error", v.State, v.Error)
	}
	// The rejected batch was NOT applied: memory never runs ahead of
	// the medium.
	if v.EventsApplied != committed.EventsApplied {
		t.Fatalf("events applied %d, want %d (batch must not apply)", v.EventsApplied, committed.EventsApplied)
	}
	if err := sess.Enqueue([]Event{{Op: OpCheckpoint, Proc: 0}}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("enqueue into degraded session: %v, want ErrDegraded", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := sess.Seal(ctx); !errors.Is(err, ErrDegraded) {
		t.Fatalf("seal of degraded session: %v, want ErrDegraded", err)
	}
	cancel()
	if g := reg.Snapshot().CounterValue("rdt_service_degraded_sessions"); g != 1 {
		t.Fatalf("degraded gauge = %d, want 1", g)
	}
	if svc.DegradedCount() != 1 {
		t.Fatalf("DegradedCount = %d, want 1", svc.DegradedCount())
	}
	// Reads still work, and other sessions are untouched.
	if !sameVerdict(t, sess.Verdict(0), committed) {
		sv := sess.Verdict(0)
		sv.State, sv.Error = committed.State, committed.Error
		if verdictJSON(t, sv) != verdictJSON(t, committed) {
			t.Fatalf("degraded session lost committed state")
		}
	}
	if err := healthy.Enqueue([]Event{{Op: OpCheckpoint, Proc: 0}}); err != nil {
		t.Fatalf("healthy session rejected: %v", err)
	}
	if err := flush(t, healthy); err != nil {
		t.Fatalf("healthy flush: %v", err)
	}
	drainNow(t, svc)

	// Restart: the degraded session recovers clean at its last durable
	// state — degradation is never persisted.
	rec, _ := newDurableService(dir)
	defer drainNow(t, rec)
	if _, err := rec.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	got, err := rec.Session("sick")
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	gv := got.Verdict(0)
	if gv.State == StateDegraded {
		t.Fatal("degradation survived a restart")
	}
	if gv.EventsApplied != committed.EventsApplied {
		t.Fatalf("recovered %d events, want %d", gv.EventsApplied, committed.EventsApplied)
	}
	if err := got.Enqueue([]Event{{Op: OpCheckpoint, Proc: 1}}); err != nil {
		t.Fatalf("ingest after recovery: %v", err)
	}
	if err := flush(t, got); err != nil {
		t.Fatalf("flush after recovery: %v", err)
	}
}

// TestHTTPReactivation exercises the satellite end to end over the
// wire: a passivated session transparently reactivates on POST events,
// and healthz reports durability.
func TestHTTPReactivation(t *testing.T) {
	dir := t.TempDir()
	c, svc, _ := newTestServer(t, Config{DataDir: dir})

	c.expect("POST", "/v1/sessions", createRequest{ID: "web", N: 2}, http.StatusCreated, nil)
	c.expect("POST", "/v1/sessions/web/events", []Event{
		{Op: OpSend, Proc: 0, Peer: 1, Msg: 0},
		{Op: OpDeliver, Msg: 0},
		{Op: OpCheckpoint, Proc: 1},
	}, http.StatusAccepted, nil)
	var before Verdict
	c.expect("GET", "/v1/sessions/web/verdict?flush=1", nil, http.StatusOK, &before)

	sess, err := svc.Session("web")
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	svc.Evict("web", "idle")
	waitFor(t, func() bool {
		select {
		case <-sess.workerDone:
			return true
		default:
			return false
		}
	})

	// POST events to the passivated session: transparent reactivation.
	c.expect("POST", "/v1/sessions/web/events", Event{Op: OpCheckpoint, Proc: 0}, http.StatusAccepted, nil)
	var after Verdict
	c.expect("GET", "/v1/sessions/web/verdict?flush=1", nil, http.StatusOK, &after)
	if after.EventsApplied != before.EventsApplied+1 {
		t.Fatalf("events applied %d, want %d", after.EventsApplied, before.EventsApplied+1)
	}

	var health struct {
		Status           string `json:"status"`
		DegradedSessions int64  `json:"degraded_sessions"`
		Durable          bool   `json:"durable"`
	}
	c.expect("GET", "/healthz", nil, http.StatusOK, &health)
	if !health.Durable || health.DegradedSessions != 0 {
		t.Fatalf("healthz = %+v, want durable with 0 degraded", health)
	}

	// DELETE removes the directory.
	c.expect("DELETE", "/v1/sessions/web", nil, http.StatusNoContent, nil)
	waitFor(t, func() bool {
		_, err := os.Stat(filepath.Join(dir, "sessions", "web"))
		return errors.Is(err, os.ErrNotExist)
	})
	resp, _ := c.do("GET", "/v1/sessions/web/verdict", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted session answered %d, want 404", resp.StatusCode)
	}
}

// TestDurableCreateCollisions pins the id/disk interactions: recreating
// a passivated id conflicts, ".."-style and ".corrupt" ids are
// rejected, and a quarantined directory is skipped by recovery.
func TestDurableCreateCollisions(t *testing.T) {
	dir := t.TempDir()
	svc, _ := newDurableService(dir)
	sess := mustCreate(t, svc, "dot", 2)
	feed(t, rand.New(rand.NewSource(1)), sess, genWorkload(rand.New(rand.NewSource(2)), 2, 10))
	svc.Evict("dot", "idle")
	waitFor(t, func() bool {
		select {
		case <-sess.workerDone:
			return true
		default:
			return false
		}
	})
	if _, err := svc.CreateSession("dot", 2); !errors.Is(err, ErrSessionExists) {
		t.Fatalf("create over passivated id: %v, want ErrSessionExists", err)
	}
	for _, bad := range []string{".", "..", "x.corrupt"} {
		if _, err := svc.CreateSession(bad, 2); err == nil {
			t.Fatalf("id %q accepted", bad)
		}
	}
	drainNow(t, svc)

	// A directory with rotten meta.json is quarantined on recovery.
	badDir := filepath.Join(dir, "sessions", "bad")
	if err := os.MkdirAll(badDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(badDir, "meta.json"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec, _ := newDurableService(dir)
	defer drainNow(t, rec)
	stats, err := rec.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if stats.QuarantinedSessions != 1 || stats.Sessions != 1 {
		t.Fatalf("stats = %+v, want 1 quarantined / 1 recovered", stats)
	}
	if _, err := os.Stat(filepath.Join(dir, "sessions", "bad.corrupt")); err != nil {
		t.Fatalf("quarantined directory missing: %v", err)
	}
}

var _ = io.Discard // keep io imported if assertions above change
