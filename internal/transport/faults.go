package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/rdt-go/rdt/internal/obs"
	"github.com/rdt-go/rdt/internal/vtime"
)

// ErrInjected is the transient send error the fault injector returns. It
// wraps nothing deliberately: callers that retry (transport.Reliable)
// treat any non-ErrClosed error as retryable, and tests assert on this
// sentinel with errors.Is.
var ErrInjected = errors.New("transport: injected transient send error")

// FaultProbs is one link's (or the default) fault mix. All probabilities
// are in [0, 1] and are evaluated independently per frame, in the order
// partition, send-error, drop, duplicate, reorder/delay.
type FaultProbs struct {
	// Drop is the probability a frame is silently lost (Send reports
	// success, nothing arrives).
	Drop float64
	// Duplicate is the probability a frame is delivered twice.
	Duplicate float64
	// Reorder is the probability a frame is held back for a random
	// extra delay in (0, MaxExtraDelay], letting later frames overtake
	// it (delay-based reordering).
	Reorder float64
	// SendError is the probability Send returns ErrInjected before the
	// frame leaves — a transient failure the sender may retry.
	SendError float64
	// MaxExtraDelay bounds the extra delay of reordered (and duplicated)
	// frames. Zero means DefaultMaxExtraDelay when Reorder or Duplicate
	// is set.
	MaxExtraDelay time.Duration
}

// DefaultMaxExtraDelay is the extra-delay bound used when a fault mix
// enables reordering or duplication without setting one.
const DefaultMaxExtraDelay = 3 * time.Millisecond

// Link addresses one directed sender→receiver channel.
type Link struct {
	From, To int
}

// FaultConfig parameterizes WithFaults.
type FaultConfig struct {
	// Seed makes the fault schedule reproducible. Zero seeds from 1.
	Seed int64
	// Default is the fault mix applied to every link.
	Default FaultProbs

	// Obs, if non-nil, receives rdt_faults_injected_total{kind=...}.
	Obs *obs.Registry
	// Tracer, if non-nil, records one EventFault per injected fault.
	Tracer *obs.Tracer

	// Clock, when non-nil, schedules deferred (delayed/duplicated) sends
	// as clock timers instead of goroutine sleeps, so under vtime.Virtual
	// they fire deterministically inside Advance. Deferred frames still
	// pending when the injector closes are dropped — indistinguishable
	// from loss, which they already are to the sender.
	Clock vtime.Clock
}

// Faulty is a fault-injecting transport decorator: it wraps any Transport
// and, per frame, probabilistically drops, duplicates, delays (reorders),
// or fails sends, and enforces dynamic pair-wise partitions. The schedule
// is driven by a single seeded generator, so a fixed seed and a fixed
// send sequence replay the same faults. Faults apply only on the send
// path; registration and delivery pass through unchanged, which lets the
// decorator compose under WithObs and over Reliable.
type Faulty struct {
	inner Transport
	cfg   FaultConfig

	mu          sync.Mutex
	rng         *rand.Rand
	partitioned map[Link]bool
	closed      bool
	wg          sync.WaitGroup // deferred (delayed/duplicated) sends

	nextID uint64
	timers map[uint64]vtime.Timer // armed clock-deferred sends, by id

	counts map[string]int64
}

var _ Transport = (*Faulty)(nil)

// Fault kinds, used as metric label values and event details.
const (
	FaultDrop      = "drop"
	FaultDuplicate = "duplicate"
	FaultReorder   = "reorder"
	FaultSendError = "send-error"
	FaultPartition = "partition"
)

// WithFaults wraps a transport with the fault injector.
func WithFaults(inner Transport, cfg FaultConfig) *Faulty {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	t := &Faulty{
		inner:       inner,
		cfg:         cfg,
		rng:         rand.New(rand.NewSource(seed)),
		partitioned: make(map[Link]bool),
		counts:      make(map[string]int64),
	}
	if cfg.Clock != nil {
		t.timers = make(map[uint64]vtime.Timer)
	}
	return t
}

// Name identifies the transport in metric labels.
func (t *Faulty) Name() string {
	if n, ok := t.inner.(interface{ Name() string }); ok {
		return "faulty+" + n.Name()
	}
	return "faulty"
}

// Partition cuts both directions between two processes: every frame
// between them is dropped until Heal. Safe to call while traffic flows.
func (t *Faulty) Partition(a, b int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.partitioned[Link{a, b}] = true
	t.partitioned[Link{b, a}] = true
}

// Heal removes the partition between two processes.
func (t *Faulty) Heal(a, b int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.partitioned, Link{a, b})
	delete(t.partitioned, Link{b, a})
}

// HealAll removes every partition.
func (t *Faulty) HealAll() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.partitioned = make(map[Link]bool)
}

// Injected returns a copy of the per-kind injected-fault counts — the
// same numbers rdt_faults_injected_total reports, available without a
// registry.
func (t *Faulty) Injected() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int64, len(t.counts))
	for k, v := range t.counts {
		out[k] = v
	}
	return out
}

// inject accounts for one injected fault. Callers hold t.mu.
func (t *Faulty) inject(kind string, f Frame) {
	t.counts[kind]++
	t.cfg.Obs.Counter("rdt_faults_injected_total", "kind", kind).Inc()
	t.cfg.Tracer.Record(obs.Event{
		Type: obs.EventFault, Proc: f.From, Peer: f.To, Detail: kind,
	})
}

// Register implements Transport: delivery is not perturbed (faults are
// injected at the sender, where the wire is).
func (t *Faulty) Register(proc int, h Handler) error {
	return t.inner.Register(proc, h)
}

// Send implements Transport. Drops and partitions report success — the
// frame is lost silently, exactly like a lossy wire. Injected send errors
// report failure without transmitting, so a retry cannot double-deliver.
func (t *Faulty) Send(f Frame) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	if t.partitioned[Link{f.From, f.To}] {
		t.inject(FaultPartition, f)
		t.mu.Unlock()
		return nil
	}
	p := t.cfg.Default
	if p.SendError > 0 && t.rng.Float64() < p.SendError {
		t.inject(FaultSendError, f)
		t.mu.Unlock()
		return fmt.Errorf("%d->%d: %w", f.From, f.To, ErrInjected)
	}
	if p.Drop > 0 && t.rng.Float64() < p.Drop {
		t.inject(FaultDrop, f)
		t.mu.Unlock()
		return nil
	}
	maxDelay := p.MaxExtraDelay
	if maxDelay <= 0 {
		maxDelay = DefaultMaxExtraDelay
	}
	var dup, reorder bool
	var delay, dupDelay time.Duration
	if p.Duplicate > 0 && t.rng.Float64() < p.Duplicate {
		dup = true
		dupDelay = time.Duration(t.rng.Int63n(int64(maxDelay))) + 1
		t.inject(FaultDuplicate, f)
	}
	if p.Reorder > 0 && t.rng.Float64() < p.Reorder {
		reorder = true
		delay = time.Duration(t.rng.Int63n(int64(maxDelay))) + 1
		t.inject(FaultReorder, f)
	}
	if dup {
		t.deferSend(f, dupDelay)
	}
	if reorder {
		t.deferSend(f, delay)
		t.mu.Unlock()
		return nil
	}
	t.mu.Unlock()
	return t.inner.Send(f)
}

// deferSend transmits the frame after a delay, off the caller's
// goroutine. Callers hold t.mu. Errors are dropped: a deferred frame is
// already reported as sent, so a late failure is just loss.
func (t *Faulty) deferSend(f Frame, delay time.Duration) {
	t.wg.Add(1)
	if t.cfg.Clock != nil {
		id := t.nextID
		t.nextID++
		t.timers[id] = t.cfg.Clock.AfterFunc(delay, func() {
			t.mu.Lock()
			if _, armed := t.timers[id]; !armed {
				// Close stopped this send and consumed the slot.
				t.mu.Unlock()
				return
			}
			delete(t.timers, id)
			t.mu.Unlock()
			defer t.wg.Done()
			_ = t.inner.Send(f)
		})
		return
	}
	go func() {
		defer t.wg.Done()
		time.Sleep(delay)
		// The inner transport stays open until Close has waited for
		// every deferred send, so a delayed frame still drains.
		_ = t.inner.Send(f)
	}()
}

// Close implements Transport: it waits for deferred sends, then closes
// the inner transport. Clock-deferred sends still armed are dropped.
func (t *Faulty) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	for id, tm := range t.timers {
		if tm.Stop() {
			delete(t.timers, id)
			t.wg.Done()
		}
	}
	t.mu.Unlock()
	t.wg.Wait()
	return t.inner.Close()
}
