package vtime

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRealClockBasics(t *testing.T) {
	c := Real()
	start := c.Now()
	done := make(chan struct{})
	c.AfterFunc(time.Millisecond, func() { close(done) })
	<-done
	if c.Since(start) <= 0 {
		t.Fatal("Since did not move")
	}
	tm := c.AfterFunc(time.Hour, func() { t.Error("stopped callback ran") })
	if !tm.Stop() {
		t.Error("Stop of a pending timer reported false")
	}
}

func TestOr(t *testing.T) {
	if Or(nil) == nil {
		t.Fatal("Or(nil) returned nil")
	}
	v := NewVirtual(time.Time{})
	if Or(v) != Clock(v) {
		t.Fatal("Or did not pass through a non-nil clock")
	}
}

func TestVirtualAdvanceMovesNow(t *testing.T) {
	v := NewVirtual(time.Time{})
	start := v.Now()
	v.Advance(3 * time.Second)
	if got := v.Since(start); got != 3*time.Second {
		t.Fatalf("Since = %v, want 3s", got)
	}
	// Advancing with no timers still lands exactly on target.
	v.Advance(0)
	if got := v.Since(start); got != 3*time.Second {
		t.Fatalf("Advance(0) moved time: %v", got)
	}
}

// TestVirtualFiringOrder is the ordering property test: regardless of
// registration order, timers fire in (deadline, registration) order, and
// AfterFunc callbacks observe the clock already at their own deadline.
func TestVirtualFiringOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		v := NewVirtual(time.Time{})
		start := v.Now()
		n := 2 + rng.Intn(30)
		type reg struct {
			d   time.Duration
			seq int
		}
		regs := make([]reg, n)
		var fired []reg
		for i := 0; i < n; i++ {
			regs[i] = reg{d: time.Duration(rng.Intn(10)) * time.Second, seq: i}
		}
		for i := 0; i < n; i++ {
			r := regs[i]
			v.AfterFunc(r.d, func() {
				if got := v.Since(start); got != r.d {
					t.Fatalf("callback for +%v ran at +%v", r.d, got)
				}
				fired = append(fired, r)
			})
		}
		v.Advance(10 * time.Second)
		if len(fired) != n {
			t.Fatalf("fired %d of %d timers", len(fired), n)
		}
		for i := 1; i < len(fired); i++ {
			a, b := fired[i-1], fired[i]
			if a.d > b.d || (a.d == b.d && a.seq > b.seq) {
				t.Fatalf("trial %d: out of order: %+v before %+v", trial, a, b)
			}
		}
	}
}

func TestVirtualAfterFuncCascade(t *testing.T) {
	// A callback scheduling another timer inside the same Advance window:
	// the new timer fires in the same call, at the right instant.
	v := NewVirtual(time.Time{})
	start := v.Now()
	var at []time.Duration
	v.AfterFunc(time.Second, func() {
		at = append(at, v.Since(start))
		v.AfterFunc(2*time.Second, func() {
			at = append(at, v.Since(start))
		})
	})
	v.Advance(5 * time.Second)
	if len(at) != 2 || at[0] != time.Second || at[1] != 3*time.Second {
		t.Fatalf("cascade fired at %v, want [1s 3s]", at)
	}
	if v.Pending() != 0 {
		t.Fatalf("%d timers still pending", v.Pending())
	}
}

// TestVirtualTimerStopReset: a stopped timer never fires, and the way to
// reset one is to arm a fresh callback — which fires at its own deadline.
func TestVirtualTimerStopReset(t *testing.T) {
	v := NewVirtual(time.Time{})
	ran := false
	tm := v.AfterFunc(time.Second, func() { ran = true })
	if !tm.Stop() {
		t.Fatal("Stop on armed timer returned false")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	v.Advance(2 * time.Second)
	if ran {
		t.Fatal("stopped callback ran")
	}
	start := v.Now()
	var at time.Duration
	v.AfterFunc(time.Second, func() { at = v.Since(start) })
	v.Advance(3 * time.Second)
	if at != time.Second {
		t.Fatalf("re-armed callback ran at +%v, want +1s", at)
	}
	fired := v.AfterFunc(0, func() {})
	v.Advance(0)
	if fired.Stop() {
		t.Fatal("Stop after firing reported true")
	}
}

// TestVirtualRearmingCallback is the periodic cadence every clock-driven
// component uses: a callback that re-arms itself fires at exactly
// start + k·d through one Advance, and a Stop from inside the callback
// leaves nothing pending.
func TestVirtualRearmingCallback(t *testing.T) {
	const d = 10 * time.Millisecond
	v := NewVirtual(time.Time{})
	start := v.Now()
	var at []time.Duration
	var tm Timer
	var tick func()
	tick = func() {
		at = append(at, v.Since(start))
		tm = v.AfterFunc(d, tick)
		if len(at) == 10 {
			if !tm.Stop() {
				t.Error("Stop of the re-armed timer reported false")
			}
		}
	}
	tm = v.AfterFunc(d, tick)
	v.Advance(10 * d)
	if len(at) != 10 {
		t.Fatalf("fired %d times, want 10", len(at))
	}
	for k, got := range at {
		if want := time.Duration(k+1) * d; got != want {
			t.Fatalf("firing %d at +%v, want +%v", k, got, want)
		}
	}
	v.Advance(10 * d)
	if len(at) != 10 || v.Pending() != 0 {
		t.Fatalf("after Stop: %d firings, %d timers pending", len(at), v.Pending())
	}
}

// TestRepeat: a Loop runs its steps at the delays they return, ends when
// a step returns a negative delay, and Stop cancels the pending step.
func TestRepeat(t *testing.T) {
	v := NewVirtual(time.Time{})
	start := v.Now()
	var at []time.Duration
	Repeat(v, time.Second, func() time.Duration {
		at = append(at, v.Since(start))
		if len(at) == 3 {
			return -1
		}
		return time.Duration(len(at)) * time.Second
	})
	v.AdvanceUntilIdle(0, nil)
	if len(at) != 3 || at[0] != time.Second || at[1] != 2*time.Second || at[2] != 4*time.Second {
		t.Fatalf("steps at %v, want [1s 2s 4s]", at)
	}

	steps := 0
	l := Repeat(v, time.Second, func() time.Duration { steps++; return time.Second })
	v.Advance(2 * time.Second)
	l.Stop()
	l.Stop() // idempotent
	v.Advance(time.Minute)
	if steps != 2 || v.Pending() != 0 {
		t.Fatalf("stopped loop: %d steps, %d timers pending; want 2, 0", steps, v.Pending())
	}
}

// TestVirtualAdvanceSerialized: concurrent Advance calls do not
// interleave firings (advMu) and the clock ends at the sum.
func TestVirtualAdvanceSerialized(t *testing.T) {
	v := NewVirtual(time.Time{})
	start := v.Now()
	var firing atomic.Int32
	for i := 0; i < 100; i++ {
		v.AfterFunc(time.Duration(i)*time.Millisecond, func() {
			if firing.Add(1) != 1 {
				t.Error("two callbacks running at once")
			}
			firing.Add(-1)
		})
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v.Advance(25 * time.Millisecond)
		}()
	}
	wg.Wait()
	if got := v.Since(start); got != 100*time.Millisecond {
		t.Fatalf("clock at +%v, want +100ms", got)
	}
	if v.Pending() != 0 {
		t.Fatalf("%d timers left", v.Pending())
	}
}

func TestVirtualAdvanceUntilIdle(t *testing.T) {
	v := NewVirtual(time.Time{})
	start := v.Now()
	var at []time.Duration
	v.AfterFunc(time.Second, func() {
		at = append(at, v.Since(start))
		v.AfterFunc(30*time.Second, func() { at = append(at, v.Since(start)) })
	})

	// Unbounded: drains the cascade completely.
	adv := v.AdvanceUntilIdle(0, nil)
	if adv != 31*time.Second {
		t.Fatalf("advanced %v, want 31s", adv)
	}
	if len(at) != 2 || at[1] != 31*time.Second {
		t.Fatalf("firings at %v", at)
	}

	// Bounded: stops at the limit even with a timer beyond it, and lands
	// exactly on start+limit.
	fired := false
	v.AfterFunc(time.Hour, func() { fired = true })
	adv = v.AdvanceUntilIdle(time.Minute, nil)
	if adv != time.Minute || fired {
		t.Fatalf("advanced %v (fired=%v), want 1m, not fired", adv, fired)
	}
	if v.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", v.Pending())
	}

	// settle runs between firings and can observe a quiesced world.
	var settles atomic.Int32
	v.AdvanceUntilIdle(2*time.Hour, func() { settles.Add(1) })
	if !fired {
		t.Fatal("hour timer did not fire")
	}
	if settles.Load() < 2 { // once before the firing, once before returning
		t.Fatalf("settle ran %d times, want >= 2", settles.Load())
	}
}

func TestVirtualNextDeadline(t *testing.T) {
	v := NewVirtual(time.Time{})
	if _, ok := v.NextDeadline(); ok {
		t.Fatal("empty clock reported a deadline")
	}
	v.AfterFunc(5*time.Second, func() {})
	v.AfterFunc(2*time.Second, func() {})
	when, ok := v.NextDeadline()
	if !ok || !when.Equal(v.Now().Add(2*time.Second)) {
		t.Fatalf("NextDeadline = %v, %v", when, ok)
	}
}

func TestVirtualDeterministicInterleaving(t *testing.T) {
	// Two identical runs produce identical firing transcripts.
	run := func() []string {
		v := NewVirtual(time.Time{})
		var log []string
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 50; i++ {
			id := i
			d := time.Duration(rng.Intn(20)) * time.Second
			v.AfterFunc(d, func() {
				log = append(log, time.Duration(id).String()+"@"+v.Now().String())
			})
		}
		v.AdvanceUntilIdle(0, nil)
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("transcript lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("transcripts diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

// TestRepeatStopWaitsForStep: on the real clock each step runs on its
// own goroutine; Stop must return only once a running step has finished,
// and no step may start after it.
func TestRepeatStopWaitsForStep(t *testing.T) {
	var steps, running atomic.Int32
	entered := make(chan struct{}, 1)
	l := Repeat(Real(), time.Millisecond, func() time.Duration {
		running.Add(1)
		defer running.Add(-1)
		select {
		case entered <- struct{}{}:
		default:
		}
		time.Sleep(2 * time.Millisecond) // a slow step, so Stop finds one running
		steps.Add(1)
		return 0
	})
	<-entered
	l.Stop()
	if running.Load() != 0 {
		t.Fatal("Stop returned while a step was running")
	}
	n := steps.Load()
	time.Sleep(10 * time.Millisecond)
	if got := steps.Load(); got != n {
		t.Fatalf("%d steps ran after Stop", got-n)
	}
}
