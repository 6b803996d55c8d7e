// Package vtime abstracts the flow of time so every timing-dependent
// layer of the system — transport delivery delays, retry backoff,
// heartbeat probes, idle eviction, runtime sampling — can run either on
// the wall clock or on a deterministic virtual clock that compresses
// hours of schedule into milliseconds of CPU.
//
// Timers are callbacks: the only way to wait on a Clock is AfterFunc,
// and a periodic action is a callback that re-arms itself (Repeat).
// Real() returns the wall-clock implementation; NewVirtual returns a
// clock whose time only moves when Advance (or AdvanceUntilIdle) is
// called, firing due callbacks one at a time in timestamp order — so
// nothing a clock drives runs beside the advancing goroutine. Scenario
// execution (internal/scenario) and deflaked timing tests are built on
// Virtual.
package vtime

import (
	"sync"
	"time"
)

// Clock is the time source of a component. Implementations must be safe
// for concurrent use.
type Clock interface {
	// Now returns the current time of this clock.
	Now() time.Time
	// Since returns Now().Sub(t).
	Since(t time.Time) time.Duration
	// AfterFunc schedules fn to run once d has elapsed. On the real
	// clock fn runs on its own goroutine; on a virtual clock it runs
	// synchronously inside Advance, in deadline order — the property
	// deterministic scenario execution is built on.
	AfterFunc(d time.Duration, fn func()) Timer
}

// Timer is an armed AfterFunc. Stop reports whether it prevented the
// firing; a stopped timer's callback will not run.
type Timer interface {
	Stop() bool
}

// Real returns the wall-clock implementation, backed by package time.
// All calls return the same instance.
func Real() Clock { return realClock{} }

// Or returns c, or the real clock when c is nil — the idiom every
// config's zero value uses.
func Or(c Clock) Clock {
	if c == nil {
		return Real()
	}
	return c
}

type realClock struct{}

func (realClock) Now() time.Time                  { return time.Now() }
func (realClock) Since(t time.Time) time.Duration { return time.Since(t) }
func (realClock) AfterFunc(d time.Duration, fn func()) Timer {
	return time.AfterFunc(d, fn)
}

// Loop is a chain of AfterFunc callbacks: the periodic (or
// variably-delayed) action of one component. Only one step is armed at
// a time, so steps never overlap.
type Loop struct {
	mu      sync.Mutex
	timer   Timer
	stopped bool
	running sync.WaitGroup // the step in progress, if any
}

// Repeat runs step once d has elapsed on c, and again after each delay
// step returns, until step returns a negative delay or Stop is called.
// The first step is armed before Repeat returns, so an Advance issued
// right after the call cannot pass it by.
func Repeat(c Clock, d time.Duration, step func() time.Duration) *Loop {
	l := &Loop{}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.arm(c, d, step)
	return l
}

// arm schedules the next step. Callers hold l.mu.
func (l *Loop) arm(c Clock, d time.Duration, step func() time.Duration) {
	l.timer = c.AfterFunc(d, func() {
		l.mu.Lock()
		if l.stopped {
			l.mu.Unlock()
			return
		}
		l.running.Add(1)
		defer l.running.Done()
		l.mu.Unlock()
		next := step()
		l.mu.Lock()
		defer l.mu.Unlock()
		if next < 0 {
			l.stopped = true
		} else if !l.stopped {
			l.arm(c, next, step)
		}
	})
}

// Stop cancels the pending step and waits for a running one to return.
// It is idempotent. A step must not call Stop on its own loop.
func (l *Loop) Stop() {
	l.mu.Lock()
	l.stopped = true
	l.timer.Stop()
	l.mu.Unlock()
	l.running.Wait()
}
