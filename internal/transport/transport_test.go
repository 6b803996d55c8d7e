package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// collector gathers delivered frames.
type collector struct {
	mu     sync.Mutex
	frames []Frame
}

func (c *collector) handler(f Frame) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.frames = append(c.frames, f)
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frames)
}

func (c *collector) waitFor(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.count() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d frames, have %d", n, c.count())
		}
		time.Sleep(time.Millisecond)
	}
}

func testTransport(t *testing.T, makeTransport func(n int) Transport) {
	t.Helper()
	t.Run("delivers frames to the right process", func(t *testing.T) {
		tr := makeTransport(3)
		defer tr.Close()
		var c0, c1, c2 collector
		for i, c := range []*collector{&c0, &c1, &c2} {
			if err := tr.Register(i, c.handler); err != nil {
				t.Fatalf("register %d: %v", i, err)
			}
		}
		for i := 0; i < 10; i++ {
			if err := tr.Send(Frame{From: 0, To: 1, Data: []byte{byte(i)}}); err != nil {
				t.Fatalf("send: %v", err)
			}
		}
		if err := tr.Send(Frame{From: 1, To: 2, Data: []byte("x")}); err != nil {
			t.Fatalf("send: %v", err)
		}
		c1.waitFor(t, 10)
		c2.waitFor(t, 1)
		if c0.count() != 0 {
			t.Errorf("process 0 received %d frames, want 0", c0.count())
		}
		for _, f := range c1.frames {
			if f.From != 0 || f.To != 1 {
				t.Errorf("misrouted frame %+v", f)
			}
		}
	})

	t.Run("rejects duplicate registration", func(t *testing.T) {
		tr := makeTransport(2)
		defer tr.Close()
		if err := tr.Register(0, func(Frame) {}); err != nil {
			t.Fatalf("register: %v", err)
		}
		if err := tr.Register(0, func(Frame) {}); err == nil {
			t.Error("duplicate registration accepted")
		}
	})

	t.Run("close is idempotent and rejects further use", func(t *testing.T) {
		tr := makeTransport(2)
		if err := tr.Register(0, func(Frame) {}); err != nil {
			t.Fatalf("register: %v", err)
		}
		if err := tr.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if err := tr.Close(); err != nil {
			t.Fatalf("second close: %v", err)
		}
		if err := tr.Register(1, func(Frame) {}); err == nil {
			t.Error("register accepted after close")
		}
	})

	t.Run("concurrent senders", func(t *testing.T) {
		tr := makeTransport(4)
		defer tr.Close()
		var sink collector
		if err := tr.Register(3, sink.handler); err != nil {
			t.Fatalf("register: %v", err)
		}
		for i := 0; i < 3; i++ {
			if err := tr.Register(i, func(Frame) {}); err != nil {
				t.Fatalf("register: %v", err)
			}
		}
		var wg sync.WaitGroup
		const perSender = 50
		for s := 0; s < 3; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for i := 0; i < perSender; i++ {
					if err := tr.Send(Frame{From: s, To: 3, Data: []byte(fmt.Sprintf("%d-%d", s, i))}); err != nil {
						t.Errorf("send: %v", err)
						return
					}
				}
			}(s)
		}
		wg.Wait()
		sink.waitFor(t, 3*perSender)
	})
}

func TestLocalTransport(t *testing.T) {
	testTransport(t, func(n int) Transport { return NewLocal(0) })
}

func TestLocalTransportWithDelay(t *testing.T) {
	testTransport(t, func(n int) Transport { return NewLocal(2 * time.Millisecond) })
}

func TestLocalSendToUnregistered(t *testing.T) {
	tr := NewLocal(0)
	defer tr.Close()
	if err := tr.Send(Frame{From: 0, To: 5}); err == nil {
		t.Error("send to unregistered process accepted")
	}
}

func TestLocalSendAfterClose(t *testing.T) {
	tr := NewLocal(0)
	if err := tr.Register(0, func(Frame) {}); err != nil {
		t.Fatalf("register: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := tr.Send(Frame{From: 1, To: 0}); err == nil {
		t.Error("send accepted after close")
	}
}

// TestLocalCloseWaitsForInFlight: Close must not return before delayed
// deliveries have run.
func TestLocalCloseWaitsForInFlight(t *testing.T) {
	tr := NewLocal(5 * time.Millisecond)
	var sink collector
	if err := tr.Register(0, sink.handler); err != nil {
		t.Fatalf("register: %v", err)
	}
	const frames = 10
	for i := 0; i < frames; i++ {
		if err := tr.Send(Frame{From: 1, To: 0}); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := sink.count(); got != frames {
		t.Errorf("Close returned with %d/%d deliveries done", got, frames)
	}
}
