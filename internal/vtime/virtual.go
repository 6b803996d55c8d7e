package vtime

import (
	"container/heap"
	"sync"
	"time"
)

// Virtual is a deterministic Clock: time stands still until Advance (or
// AdvanceUntilIdle) moves it, and due timers fire in (deadline,
// registration) order — two timers never fire in different orders on two
// runs. Callbacks run synchronously inside the advancing call, one at a
// time, so every schedule built on them (transport delivery, retry
// backoff, supervision probes, idle sweeps) is fully deterministic:
// nothing the clock drives runs beside the goroutine that advances it.
type Virtual struct {
	mu     sync.Mutex
	now    time.Time
	seq    uint64
	timers vheap

	// advMu serializes advancing so concurrent Advance calls cannot
	// interleave their firing sequences. Timer callbacks run holding it:
	// advancing the clock from inside a callback would self-deadlock and
	// is a programming error.
	advMu sync.Mutex
}

// NewVirtual returns a virtual clock reading start. A zero start is
// pinned to a fixed epoch so transcripts never depend on the wall clock.
func NewVirtual(start time.Time) *Virtual {
	if start.IsZero() {
		start = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	return &Virtual{now: start}
}

var _ Clock = (*Virtual)(nil)

// Now returns the current virtual time.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Since returns Now().Sub(t).
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// AfterFunc schedules fn to run once d has elapsed. fn runs synchronously
// inside the Advance call that reaches its deadline — deterministic, and
// therefore forbidden to advance the clock itself.
func (v *Virtual) AfterFunc(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.seq++
	t := &vtimer{v: v, when: v.now.Add(d), seq: v.seq, fn: fn}
	heap.Push(&v.timers, t)
	return t
}

// Advance moves the clock forward by d, firing every timer due in the
// window in (deadline, registration) order, one at a time. d must be
// nonnegative.
func (v *Virtual) Advance(d time.Duration) {
	if d < 0 {
		panic("vtime: negative advance")
	}
	v.advMu.Lock()
	defer v.advMu.Unlock()
	v.mu.Lock()
	v.advanceLocked(v.now.Add(d), false, nil)
	v.mu.Unlock()
}

// AdvanceUntilIdle advances the clock, firing due timers one at a time,
// until no timer remains due within limit of the starting time (limit <=
// 0 drains the heap completely). Before each firing it calls settle (if
// non-nil), the caller's own quiescence barrier, so all work one timer
// triggered, and any timers that work scheduled, are registered before
// the next timer fires. With limit > 0 the clock ends exactly at
// start+limit. It returns the virtual time advanced.
func (v *Virtual) AdvanceUntilIdle(limit time.Duration, settle func()) time.Duration {
	v.advMu.Lock()
	defer v.advMu.Unlock()
	v.mu.Lock()
	defer v.mu.Unlock()
	start := v.now
	v.advanceLocked(start.Add(limit), limit <= 0, settle)
	return v.now.Sub(start)
}

// advanceLocked is the shared firing loop. Callers hold v.advMu and
// v.mu; the lock is dropped around callbacks and settle.
func (v *Virtual) advanceLocked(target time.Time, unbounded bool, settle func()) {
	for {
		if settle != nil {
			v.mu.Unlock()
			settle()
			v.mu.Lock()
		}
		t := v.timers.peek()
		if t == nil || (!unbounded && t.when.After(target)) {
			break
		}
		if t.when.After(v.now) {
			v.now = t.when
		}
		heap.Remove(&v.timers, t.idx)
		v.mu.Unlock()
		t.fn()
		v.mu.Lock()
	}
	if !unbounded && v.now.Before(target) {
		v.now = target
	}
}

// Pending returns the number of armed timers.
func (v *Virtual) Pending() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.timers)
}

// NextDeadline returns the earliest armed deadline.
func (v *Virtual) NextDeadline() (time.Time, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	t := v.timers.peek()
	if t == nil {
		return time.Time{}, false
	}
	return t.when, true
}

// vtimer is one armed (or fired) timer of a Virtual clock.
type vtimer struct {
	v    *Virtual
	when time.Time
	seq  uint64
	idx  int // heap index; -1 when not armed
	fn   func()
}

// Stop disarms the timer, reporting whether it prevented a firing.
func (t *vtimer) Stop() bool {
	t.v.mu.Lock()
	defer t.v.mu.Unlock()
	if t.idx < 0 {
		return false
	}
	heap.Remove(&t.v.timers, t.idx)
	return true
}

// vheap orders timers by (deadline, registration sequence).
type vheap []*vtimer

func (h vheap) Len() int { return len(h) }
func (h vheap) Less(i, j int) bool {
	if !h[i].when.Equal(h[j].when) {
		return h[i].when.Before(h[j].when)
	}
	return h[i].seq < h[j].seq
}
func (h vheap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *vheap) Push(x any) {
	t := x.(*vtimer)
	t.idx = len(*h)
	*h = append(*h, t)
}
func (h *vheap) Pop() any {
	old := *h
	t := old[len(old)-1]
	old[len(old)-1] = nil
	t.idx = -1
	*h = old[:len(old)-1]
	return t
}
func (h vheap) peek() *vtimer {
	if len(h) == 0 {
		return nil
	}
	return h[0]
}
