package stream

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/rdt-go/rdt/internal/service"
)

func poolTestService(t *testing.T, dir string) *service.Service {
	t.Helper()
	svc, err := service.New(service.Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if dir != "" {
		if _, err := svc.Recover(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Drain(ctx)
	})
	return svc
}

func testBatch(n int) []service.Event {
	events := make([]service.Event, n)
	for i := range events {
		events[i] = service.Event{Op: service.OpCheckpoint, Proc: i % 2}
	}
	return events
}

// TestPoolFollowsMoved: a member's gate answers MOVED for sessions it
// does not own; the pool follows the redirect to the owner.
func TestPoolFollowsMoved(t *testing.T) {
	svcA := poolTestService(t, "")
	svcB := poolTestService(t, "")
	srvB, err := Serve("127.0.0.1:0", Config{Service: svcB})
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close() //nolint:errcheck
	svcA.SetGate(func(id string) error {
		if strings.HasPrefix(id, "b-") {
			return &service.MovedError{Owner: "b", HTTP: "unused", Stream: srvB.Addr()}
		}
		return nil
	}, nil)
	srvA, err := Serve("127.0.0.1:0", Config{Service: svcA})
	if err != nil {
		t.Fatal(err)
	}
	defer srvA.Close() //nolint:errcheck

	pool := NewPool([]string{srvA.Addr()})
	defer pool.Close() //nolint:errcheck
	ch, addr, err := pool.Open("b-42", 2, "p")
	if err != nil {
		t.Fatal(err)
	}
	if addr != srvB.Addr() {
		t.Fatalf("pool landed on %s, want owner %s", addr, srvB.Addr())
	}
	if err := ch.Send(testBatch(4)); err != nil {
		t.Fatal(err)
	}
	if err := ch.Seal(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ch.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	sess, err := svcB.Session("b-42")
	if err != nil {
		t.Fatal(err)
	}
	if v := sess.Verdict(0); v.EventsApplied != 4 {
		t.Fatalf("owner applied %d events, want 4", v.EventsApplied)
	}
}

// TestPoolResumeAfterRestart: the owner restarts from its data dir and
// the pool resumes the channel at the durable dedup watermark — every
// event applied exactly once whether or not its ack survived the cut.
func TestPoolResumeAfterRestart(t *testing.T) {
	dir := t.TempDir()
	svc1, err := service.New(service.Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc1.Recover(); err != nil {
		t.Fatal(err)
	}
	srv1, err := Serve("127.0.0.1:0", Config{Service: svc1})
	if err != nil {
		t.Fatal(err)
	}

	pool := NewPool([]string{srv1.Addr()})
	defer pool.Close() //nolint:errcheck
	ch, _, err := pool.Open("restart-1", 2, "p")
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Send(testBatch(5)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	err = ch.Flush(ctx)
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	// One batch deliberately left un-flushed across the cut: its ack
	// may or may not arrive before the server dies.
	if err := ch.Send(testBatch(3)); err != nil {
		t.Fatal(err)
	}

	_ = srv1.Close()
	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	err = svc1.Drain(dctx)
	dcancel()
	if err != nil {
		t.Fatal(err)
	}

	svc2 := poolTestService(t, dir)
	srv2, err := Serve("127.0.0.1:0", Config{Service: svc2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close() //nolint:errcheck

	pool2 := NewPool([]string{srv2.Addr()})
	defer pool2.Close() //nolint:errcheck
	ch2, addr, err := pool2.Resume(ch)
	if err != nil {
		t.Fatal(err)
	}
	if addr != srv2.Addr() {
		t.Fatalf("resumed at %s, want %s", addr, srv2.Addr())
	}
	if err := ch2.Send(testBatch(2)); err != nil {
		t.Fatal(err)
	}
	if err := ch2.Seal(); err != nil {
		t.Fatal(err)
	}
	fctx, fcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer fcancel()
	if err := ch2.Flush(fctx); err != nil {
		t.Fatal(err)
	}
	sess, err := svc2.Session("restart-1")
	if err != nil {
		t.Fatal(err)
	}
	if v := sess.Verdict(0); v.EventsApplied != 10 {
		t.Fatalf("applied %d events across restart, want exactly 10", v.EventsApplied)
	}
}

// TestRedirector: the router's stream listener speaks just enough
// RDTSTRM1 to bounce every OPEN at the session's owner.
func TestRedirector(t *testing.T) {
	svc := poolTestService(t, "")
	srv, err := Serve("127.0.0.1:0", Config{Service: svc})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close() //nolint:errcheck

	rd, err := ServeRedirector("127.0.0.1:0", func(id string) (string, bool) {
		return srv.Addr(), true
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close() //nolint:errcheck

	pool := NewPool([]string{rd.Addr()})
	defer pool.Close() //nolint:errcheck
	ch, addr, err := pool.Open("red-1", 2, "p")
	if err != nil {
		t.Fatal(err)
	}
	if addr != srv.Addr() {
		t.Fatalf("landed on %s, want %s", addr, srv.Addr())
	}
	if err := ch.Send(testBatch(2)); err != nil {
		t.Fatal(err)
	}
	if err := ch.Seal(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ch.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	// A redirector with no stream owner reports a session error.
	rd2, err := ServeRedirector("127.0.0.1:0", func(id string) (string, bool) {
		return "", false
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rd2.Close() //nolint:errcheck
	pool2 := NewPool([]string{rd2.Addr()})
	defer pool2.Close() //nolint:errcheck
	if _, _, err := pool2.Open("red-2", 2, "p"); err == nil {
		t.Fatal("open through ownerless redirector succeeded; want error")
	}
}
