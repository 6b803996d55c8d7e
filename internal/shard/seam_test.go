package shard

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rdt-go/rdt/internal/rgraph"
	"github.com/rdt-go/rdt/internal/service"
	"github.com/rdt-go/rdt/internal/storage"
	"github.com/rdt-go/rdt/internal/stream"
)

// The handoff-seam differential tests: kill the session's owner at a
// nasty moment — right after a WAL append, or in the middle of a
// membership-change transfer — restart or fail over,
// let the client resume over the stream wire, and demand the final
// verdict, recovery line, and violation witnesses be bit-identical to
// an uninterrupted single-service run of the same events, and that the
// verdict agree with the batch checker. Zero lost events, zero
// duplicated events, across the seam.

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatalf("copy %s -> %s: %v", src, dst, err)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// compareSessions demands got and want agree on verdict, recovery
// line, and explain witnesses, and that the verdict matches the batch
// checker over want's pattern.
func compareSessions(t *testing.T, label string, got, want *service.Session) {
	t.Helper()
	gv, wv := got.Verdict(0), want.Verdict(0)
	if g, w := mustJSON(t, gv), mustJSON(t, wv); g != w {
		t.Errorf("%s: verdict diverged\n got: %s\nwant: %s", label, g, w)
	}
	gl, gerr := got.Line()
	wl, werr := want.Line()
	if (gerr == nil) != (werr == nil) {
		t.Errorf("%s: line errors diverged: %v vs %v", label, gerr, werr)
	} else if gerr == nil {
		if g, w := mustJSON(t, gl), mustJSON(t, wl); g != w {
			t.Errorf("%s: recovery line diverged\n got: %s\nwant: %s", label, g, w)
		}
	}
	gp, gw, gerr := got.Explain(0)
	wp, ww, werr := want.Explain(0)
	if (gerr == nil) != (werr == nil) {
		t.Errorf("%s: explain errors diverged: %v vs %v", label, gerr, werr)
	} else if gerr == nil {
		if g, w := mustJSON(t, gw), mustJSON(t, ww); g != w {
			t.Errorf("%s: witnesses diverged\n got: %s\nwant: %s", label, g, w)
		}
		if g, w := mustJSON(t, gp), mustJSON(t, wp); g != w {
			t.Errorf("%s: patterns diverged", label)
		}
	}
	p, _, err := want.Snapshot()
	if err != nil {
		t.Fatalf("%s: snapshot: %v", label, err)
	}
	rep, err := rgraph.CheckRDT(p, 0)
	if err != nil {
		t.Fatalf("%s: CheckRDT: %v", label, err)
	}
	if rep.RDT != gv.RDT || rep.RPathPairs != gv.RPathPairs || rep.TrackablePairs != gv.TrackablePairs {
		t.Errorf("%s: verdict (rdt=%v rpaths=%d trackable=%d) disagrees with batch CheckRDT (rdt=%v rpaths=%d trackable=%d)",
			label, gv.RDT, gv.RPathPairs, gv.TrackablePairs, rep.RDT, rep.RPathPairs, rep.TrackablePairs)
	}
}

// sendRetry sends one batch with the cluster client's recorded-vs-not
// discipline: a failed send whose frame was recorded in flight is
// replayed by Resume; an unrecorded one must be sent again by us.
// Replaces *chp with the resumed channel on failover.
func sendRetry(t *testing.T, pool *stream.Pool, chp **stream.Chan, batch []service.Event) {
	t.Helper()
	for attempt := 0; attempt < 10; attempt++ {
		ch := *chp
		pre := ch.NextSeq()
		err := ch.Send(batch)
		if err == nil {
			return
		}
		recorded := ch.NextSeq() > pre
		nch, _, rerr := pool.Resume(ch)
		if rerr != nil {
			t.Fatalf("resume after send failure (%v): %v", err, rerr)
		}
		*chp = nch
		if recorded {
			return
		}
	}
	t.Fatal("send kept failing across resumes")
}

func sealFlush(t *testing.T, pool *stream.Pool, chp **stream.Chan) {
	t.Helper()
	for attempt := 0; attempt < 10; attempt++ {
		ch := *chp
		pre := ch.NextSeq()
		err := ch.Seal()
		if err != nil {
			recorded := ch.NextSeq() > pre
			nch, _, rerr := pool.Resume(ch)
			if rerr != nil {
				t.Fatalf("resume after seal failure (%v): %v", err, rerr)
			}
			*chp = nch
			if recorded {
				break
			}
			continue
		}
		break
	}
	for attempt := 0; attempt < 10; attempt++ {
		ch := *chp
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := ch.Flush(ctx)
		cancel()
		if err == nil {
			return
		}
		nch, _, rerr := pool.Resume(ch)
		if rerr != nil {
			t.Fatalf("resume after flush failure (%v): %v", err, rerr)
		}
		*chp = nch
	}
	t.Fatal("flush kept failing across resumes")
}

// referenceSession replays all events on an uninterrupted in-memory
// service and seals it.
func referenceSession(t *testing.T, id string, procs int, events []service.Event) (*service.Session, func()) {
	t.Helper()
	ref, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = ref.Drain(ctx)
	}
	sess, err := ref.CreateSession(id, procs)
	if err != nil {
		stop()
		t.Fatal(err)
	}
	if err := sess.Enqueue(events); err != nil {
		stop()
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sess.Seal(ctx); err != nil {
		stop()
		t.Fatal(err)
	}
	return sess, stop
}

// runRestartSeam is the single-owner crash shape of the after-append
// kill point: capture the owner's data directory at the crash instant
// (arm decides when), kill the owner,
// restart a replacement from the captured image under a new ring
// epoch, and let the client resume and finish.
//
// The capture hook must BLOCK the session worker until the kill is
// done: a real crash stops the world at the capture instant, and any
// ack emitted between capture and kill would make the client drop a
// batch the image never saw.
func runRestartSeam(t *testing.T, seed int64, arm func(t *testing.T, m *member, id, crashDir string, capture func())) {
	dirA := t.TempDir()
	crashDir := t.TempDir()
	mA := startMember(t, "a", dirA)
	killed := false
	defer func() {
		if !killed {
			mA.stop(t)
		}
	}()
	ring1, err := New(1, 0, []Member{mA.Member()})
	if err != nil {
		t.Fatal(err)
	}
	adoptAll(t, ring1, mA)
	id := idOwnedBy(t, ring1, "a", "seam")

	const (
		procs     = 3
		batchSize = 10
		preBatch  = 5  // applied and flushed before arming
		midBatch  = 10 // sent across the crash window
		postBatch = 3  // sent after failover
	)
	tr, err := stream.NewTraffic("random", procs, seed)
	if err != nil {
		t.Fatal(err)
	}
	var all []service.Event
	batch := func() []service.Event {
		b := tr.Next(nil, batchSize)
		all = append(all, b...)
		return b
	}

	pool1 := stream.NewPool([]string{mA.ssrv.Addr()})
	defer pool1.Close()
	ch, _, err := pool1.Open(id, procs, "seamprod")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < preBatch; i++ {
		if err := ch.Send(batch()); err != nil {
			t.Fatal(err)
		}
	}
	fctx, fcancel := context.WithTimeout(context.Background(), 10*time.Second)
	err = ch.Flush(fctx)
	fcancel()
	if err != nil {
		t.Fatal(err)
	}

	// The capture: copy the data dir, then park the worker until the
	// owner is killed.
	sig := make(chan struct{})
	unblock := make(chan struct{})
	var unblockOnce sync.Once
	release := func() { unblockOnce.Do(func() { close(unblock) }) }
	defer release()
	capture := func() {
		copyDir(t, dirA, crashDir)
		close(sig)
		<-unblock
	}
	arm(t, mA, id, crashDir, capture)

	// Send across the crash window. The hook fires on one of these and
	// parks the worker; the rest queue unacked.
	for i := 0; i < midBatch; i++ {
		if err := ch.Send(batch()); err != nil {
			t.Fatalf("mid send %d: %v", i, err)
		}
	}
	select {
	case <-sig:
	case <-time.After(10 * time.Second):
		t.Fatal("crash hook never fired")
	}
	mA.kill()
	killed = true
	release()

	// The replacement recovers from the crash image at new addresses;
	// epoch 2 re-announces the member.
	mA2 := startMember(t, "a", crashDir)
	defer mA2.stop(t)
	ring2, err := New(2, 0, []Member{mA2.Member()})
	if err != nil {
		t.Fatal(err)
	}
	ring2.Prev = ring1
	adoptAll(t, ring2, mA2)

	pool2 := stream.NewPool([]string{mA2.ssrv.Addr()})
	defer pool2.Close()
	ch2, _, err := pool2.Resume(ch)
	if err != nil {
		t.Fatalf("resume onto replacement: %v", err)
	}
	for i := 0; i < postBatch; i++ {
		sendRetry(t, pool2, &ch2, batch())
	}
	sealFlush(t, pool2, &ch2)

	got, err := mA2.svc.Session(id)
	if err != nil {
		t.Fatalf("session on replacement: %v", err)
	}
	want, stop := referenceSession(t, id, procs, all)
	defer stop()
	compareSessions(t, "restart seam", got, want)

	// Exactly-once, stated directly: the replacement applied each of
	// the generated events exactly once.
	if gv := got.Verdict(0); gv.EventsApplied != int64(len(all)) {
		t.Errorf("replacement applied %d events, want %d", gv.EventsApplied, len(all))
	}
	// Drain the dead owner's service so the test leaves nothing running.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = mA.svc.Drain(ctx)
}

func TestSeamKillAfterAppend(t *testing.T) {
	runRestartSeam(t, 101, func(t *testing.T, m *member, id, crashDir string, capture func()) {
		var armed atomic.Bool
		var once sync.Once
		restore := service.SetCrashHooks(func(sessionID string) {
			if !armed.Load() || sessionID != id {
				return
			}
			once.Do(capture)
		}, nil)
		t.Cleanup(restore)
		armed.Store(true)
	})
}

// TestSeamKillMidTransfer kills the old owner in the middle of a
// membership-change handoff — after its export, while the new owner is
// still staging the import — then lets the client fail over to the new
// owner and finish.
func TestSeamKillMidTransfer(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	mA := startMember(t, "a", dirA)
	killed := false
	defer func() {
		if !killed {
			mA.stop(t)
		}
	}()
	mB := startMember(t, "b", dirB)
	defer mB.stop(t)
	ring1, err := New(1, 0, []Member{mA.Member(), mB.Member()})
	if err != nil {
		t.Fatal(err)
	}
	adoptAll(t, ring1, mA, mB)
	id := idOwnedBy(t, ring1, "a", "xfer")

	const procs = 3
	tr, err := stream.NewTraffic("pairs", procs, 303)
	if err != nil {
		t.Fatal(err)
	}
	var all []service.Event
	batch := func() []service.Event {
		b := tr.Next(nil, 10)
		all = append(all, b...)
		return b
	}

	pool := stream.NewPool([]string{mA.ssrv.Addr(), mB.ssrv.Addr()})
	defer pool.Close()
	ch, addr, err := pool.Open(id, procs, "xferprod")
	if err != nil {
		t.Fatal(err)
	}
	if addr != mA.ssrv.Addr() {
		t.Fatalf("opened at %s, want owner %s", addr, mA.ssrv.Addr())
	}
	for i := 0; i < 6; i++ {
		if err := ch.Send(batch()); err != nil {
			t.Fatal(err)
		}
	}
	fctx, fcancel := context.WithTimeout(context.Background(), 10*time.Second)
	err = ch.Flush(fctx)
	fcancel()
	if err != nil {
		t.Fatal(err)
	}

	// Kill the exporter the instant the importer stages its files.
	sig := make(chan struct{})
	var once sync.Once
	prev := storage.TestingBeforeRename
	storage.TestingBeforeRename = func(path string) {
		if !strings.Contains(path, "#import#"+id) {
			return
		}
		once.Do(func() {
			mA.kill()
			close(sig)
		})
	}
	t.Cleanup(func() { storage.TestingBeforeRename = prev })

	// b takes over: adopt on the new owner first, then on the departing
	// member, whose rebalance ships the session — and dies mid-import.
	ring2, err := New(2, 0, []Member{mB.Member()})
	if err != nil {
		t.Fatal(err)
	}
	ring2.Prev = ring1
	adoptAll(t, ring2, mB, mA)
	select {
	case <-sig:
		killed = true
	case <-time.After(10 * time.Second):
		t.Fatal("transfer never reached the import stage")
	}
	mA.node.WaitRebalance()
	mB.node.WaitRebalance()

	// The client fails over and finishes on b.
	for i := 0; i < 4; i++ {
		sendRetry(t, pool, &ch, batch())
	}
	sealFlush(t, pool, &ch)

	if !mB.svc.HasLocal(id) {
		t.Fatal("session did not land on the new owner")
	}
	got, err := mB.svc.Session(id)
	if err != nil {
		t.Fatal(err)
	}
	want, stop := referenceSession(t, id, procs, all)
	defer stop()
	compareSessions(t, "mid-transfer seam", got, want)
	if gv := got.Verdict(0); gv.EventsApplied != int64(len(all)) {
		t.Errorf("new owner applied %d events, want %d", gv.EventsApplied, len(all))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = mA.svc.Drain(ctx)
}
