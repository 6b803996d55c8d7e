// Package cluster is the concurrent runtime of the library: one goroutine
// per process, a pluggable transport carrying application payloads with
// protocol piggybacks, persistent checkpoint storage, trace recording, and
// quiescence detection. It is the embedding a downstream application uses
// to obtain RDT guarantees for its own message passing.
//
// Lifecycle: New starts the nodes; the application drives them through
// Node.Send / Node.Checkpoint and receives deliveries through the Handler
// callback; Quiesce waits until no message or operation is outstanding;
// Stop shuts everything down and returns the recorded, finalized
// checkpoint and communication pattern.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/obs"
	"github.com/rdt-go/rdt/internal/storage"
	"github.com/rdt-go/rdt/internal/transport"
)

// Config parameterizes a cluster.
type Config struct {
	// N is the number of processes.
	N int
	// Protocol selects the checkpointing protocol (default KindBHMR).
	Protocol core.Kind
	// Transport moves frames between processes; defaults to an in-process
	// transport with up to transport.DefaultLocalDelay of delivery
	// delay. The cluster closes it on Stop.
	Transport transport.Transport
	// Store persists checkpoints; defaults to an in-memory store.
	Store storage.Store
	// Handler, if non-nil, is invoked in the destination node's goroutine
	// after every delivery.
	Handler func(n *Node, from int, payload []byte)
	// Snapshot, if non-nil, provides the application state persisted with
	// each checkpoint of a process.
	Snapshot func(proc int) []byte
	// LogPayloads keeps a copy of every sent payload, keyed by the message
	// id of the recorded pattern — the sender-based message log recovery
	// needs to replay in-transit messages after a rollback.
	LogPayloads bool

	// Obs, if non-nil, receives the cluster's metrics (sends,
	// deliveries, per-predicate forced checkpoints, queue depths,
	// latency histograms) and turns on transport instrumentation. Nil
	// disables observability at near-zero cost.
	Obs *obs.Registry
	// Tracer, if non-nil, records structured events (sends, deliveries,
	// checkpoints with their triggering predicate, transport send errors)
	// into its bounded ring.
	Tracer *obs.Tracer

	// OnError, if non-nil, receives asynchronous runtime errors that have
	// no caller to return to: transport send failures from a node
	// goroutine and checkpoint-store write failures. It may be called
	// concurrently from several goroutines and must not block. Nil means
	// the errors are still counted and traced, just not delivered.
	OnError func(error)
}

// ErrStopped is returned by operations on a stopped cluster.
var ErrStopped = errors.New("cluster is stopped")

// Cluster runs N protocol-equipped processes.
type Cluster struct {
	cfg   Config
	trans transport.Transport
	store storage.Store
	nodes []*Node

	mu       sync.Mutex
	builder  *model.Builder
	payloads map[int][]byte
	stopped  bool
	crashed  map[int]bool

	// outstanding counts queued operations, executing operations, AND
	// in-flight frames — Quiesce's "nothing anywhere" barrier. active
	// counts only queued and executing operations: it drains while frames
	// are still parked in a virtual-clock transport, which is what makes
	// Settle usable between two timer firings.
	outstanding *pending
	active      *pending
	ins         *instruments // nil when observability is off
}

// New builds and starts a cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("cluster: need at least 2 processes, have %d", cfg.N)
	}
	if cfg.Protocol == 0 {
		cfg.Protocol = core.KindBHMR
	}
	c := &Cluster{
		cfg:         cfg,
		trans:       cfg.Transport,
		store:       cfg.Store,
		builder:     model.NewBuilder(cfg.N),
		outstanding: newPending(),
		active:      newPending(),
		crashed:     make(map[int]bool),
	}
	if c.trans == nil {
		c.trans = transport.NewLocal(transport.DefaultLocalDelay)
	}
	if cfg.Obs != nil || cfg.Tracer != nil {
		c.ins = newInstruments(cfg.Obs, cfg.Tracer, cfg.Protocol)
		c.trans = transport.WithObs(c.trans, cfg.Obs, cfg.Tracer)
	}
	if cfg.LogPayloads {
		c.payloads = make(map[int][]byte)
	}
	if c.store == nil {
		c.store = storage.NewMemory()
	}

	c.nodes = make([]*Node, cfg.N)
	for i := 0; i < cfg.N; i++ {
		node, err := newNode(c, i)
		if err != nil {
			return nil, err
		}
		c.nodes[i] = node
	}
	for i := 0; i < cfg.N; i++ {
		node := c.nodes[i]
		if err := c.trans.Register(i, node.onFrame); err != nil {
			return nil, fmt.Errorf("cluster: register process %d: %w", i, err)
		}
	}
	for _, node := range c.nodes {
		node.start()
	}
	return c, nil
}

// N returns the number of processes.
func (c *Cluster) N() int { return c.cfg.N }

// Node returns the handle of one process.
func (c *Cluster) Node(proc int) *Node { return c.nodes[proc] }

// Store returns the checkpoint store.
func (c *Cluster) Store() storage.Store { return c.store }

// Quiesce blocks until no operation or message is outstanding — including
// any cascade the Handler callback generates. It does not stop the
// cluster.
func (c *Cluster) Quiesce() {
	if c.ins == nil {
		c.outstanding.wait()
		return
	}
	start := time.Now()
	c.outstanding.wait()
	c.ins.quiesceWait.Observe(time.Since(start).Seconds())
}

// QuiesceCtx is Quiesce with a deadline: it returns nil once nothing is
// outstanding, or the context's error when it expires first. Under fault
// injection without a reliable transport, dropped frames leak outstanding
// counts — QuiesceCtx turns what would be a hang into a diagnosable
// timeout.
func (c *Cluster) QuiesceCtx(ctx context.Context) error {
	if c.ins == nil {
		return c.outstanding.waitCtx(ctx)
	}
	start := time.Now()
	err := c.outstanding.waitCtx(ctx)
	c.ins.quiesceWait.Observe(time.Since(start).Seconds())
	return err
}

// Settle blocks until no operation is queued or executing on any node —
// including the cascade a delivery's Handler generates, and the exit of
// a node goroutine the supervisor fail-stopped. Unlike Quiesce
// it does not wait for in-flight frames, so under a virtual-clock
// transport (where frames park on clock timers between Advance calls) it
// is the barrier between two timer firings: everything the last firing
// triggered has executed, every send it caused is parked in the clock,
// and the next firing starts from a quiescent cluster. This is the
// settle hook deterministic scenario execution passes to
// vtime.Virtual.AdvanceUntilIdle.
func (c *Cluster) Settle() { c.active.wait() }

// Stop quiesces the cluster, shuts down the nodes and the transport, and
// returns the recorded pattern, finalized. Stop is idempotent; subsequent
// calls return ErrStopped.
func (c *Cluster) Stop() (*model.Pattern, error) {
	if err := c.beginStop(); err != nil {
		return nil, err
	}
	// New operations are rejected from here on; wait for the in-flight
	// ones (and their cascades) to drain before tearing down.
	c.Quiesce()
	if err := c.teardown(); err != nil {
		return nil, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	p, err := c.builder.Finalize()
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	return p, nil
}

// StopLossy stops the cluster like Stop, but tolerates loss: it waits for
// quiescence only until the context expires, and messages still in flight
// at teardown (dropped by faults or dead with a crashed process) are
// returned as lost messages instead of failing finalization. It is the
// shutdown path for runs with crashes or a lossy transport.
func (c *Cluster) StopLossy(ctx context.Context) (*model.Pattern, []model.LostMessage, error) {
	if err := c.beginStop(); err != nil {
		return nil, nil, err
	}
	// Best-effort drain: a timeout here just means more messages land in
	// the lost set.
	_ = c.QuiesceCtx(ctx)
	return c.finishLossy()
}

// finishLossy is the second half of StopLossy, after beginStop and the
// drain: tear down and finalize, classifying what is still in flight as
// lost.
func (c *Cluster) finishLossy() (*model.Pattern, []model.LostMessage, error) {
	if err := c.teardown(); err != nil {
		return nil, nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	p, lost, err := c.builder.FinalizeLossy()
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: %w", err)
	}
	return p, lost, nil
}

// beginStop atomically marks the cluster stopped.
func (c *Cluster) beginStop() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return ErrStopped
	}
	c.stopped = true
	return nil
}

// teardown stops the node goroutines and closes the transport.
func (c *Cluster) teardown() error {
	for _, node := range c.nodes {
		node.stop()
	}
	if err := c.trans.Close(); err != nil {
		return fmt.Errorf("cluster: close transport: %w", err)
	}
	return nil
}

// isStopped reports whether Stop has begun.
func (c *Cluster) isStopped() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stopped
}

// reportError delivers an asynchronous runtime error to the configured
// sink, if any.
func (c *Cluster) reportError(err error) {
	if c.cfg.OnError != nil {
		c.cfg.OnError(err)
	}
}

// noteCrash records that a process fail-stopped.
func (c *Cluster) noteCrash(proc, droppedOps int) {
	c.mu.Lock()
	c.crashed[proc] = true
	c.mu.Unlock()
	c.ins.crash(proc, droppedOps)
}

// noteRestart records that a crashed process came back.
func (c *Cluster) noteRestart(proc int) {
	c.mu.Lock()
	delete(c.crashed, proc)
	c.mu.Unlock()
	c.ins.restart(proc)
}

// Crashed returns the processes currently fail-stopped, in ascending
// order.
func (c *Cluster) Crashed() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var procs []int
	for p := 0; p < c.cfg.N; p++ {
		if c.crashed[p] {
			procs = append(procs, p)
		}
	}
	return procs
}

// recordSend registers a send event in the trace (and, when payload
// logging is on, in the message log) and returns its handle.
func (c *Cluster) recordSend(from, to int, payload []byte) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	handle := c.builder.Send(model.ProcID(from), model.ProcID(to))
	if c.payloads != nil {
		c.payloads[handle] = append([]byte(nil), payload...)
	}
	return handle
}

// Payload returns the logged payload of a message (by the message id of
// the recorded pattern). It reports false when payload logging is off or
// the id is unknown.
func (c *Cluster) Payload(id int) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	data, ok := c.payloads[id]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), data...), true
}

// recordDeliver registers a delivery event in the trace.
func (c *Cluster) recordDeliver(handle int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.builder.Deliver(handle)
}

// recordCheckpoint registers a checkpoint in the trace and persists it.
// It is the protocol sink of every node, called from the node goroutine.
func (c *Cluster) recordCheckpoint(rec core.CheckpointRecord) {
	if rec.Kind != model.KindInitial {
		c.mu.Lock()
		c.builder.Checkpoint(model.ProcID(rec.Proc), rec.Kind, rec.TDV)
		c.mu.Unlock()
	}
	c.ins.checkpoint(rec)
	var state []byte
	if c.cfg.Snapshot != nil {
		state = c.cfg.Snapshot(rec.Proc)
	}
	// The protocol cannot roll a checkpoint back, so a failed write has no
	// caller to return to — count it, trace it, and hand it to the error
	// sink so the application learns its stable storage is degraded before
	// a recovery needs it.
	if err := c.store.Put(storage.Checkpoint{
		Proc:  rec.Proc,
		Index: rec.Index,
		Kind:  rec.Kind,
		TDV:   rec.TDV,
		State: state,
	}); err != nil {
		c.ins.storeError(rec.Proc, err)
		c.reportError(fmt.Errorf("cluster: persist checkpoint (%d,%d): %w", rec.Proc, rec.Index, err))
	}
}

// Metrics is an aggregate snapshot of a cluster's activity.
type Metrics struct {
	// Sent counts messages sent (equals deliveries once quiesced).
	Sent int
	// Basic and Forced count checkpoints across all processes (initial
	// checkpoints excluded).
	Basic  int
	Forced int
	// PiggybackBytes is the published protocol's control information per
	// message times the number of messages sent.
	PiggybackBytes int
}

// Metrics synchronizes with every node and returns aggregate counters.
func (c *Cluster) Metrics() (Metrics, error) {
	var m Metrics
	for _, node := range c.nodes {
		st, err := node.Status()
		if err != nil {
			return Metrics{}, err
		}
		m.Basic += st.Basic
		m.Forced += st.Forced
	}
	c.mu.Lock()
	m.Sent = c.builder.NextMessageID()
	c.mu.Unlock()
	m.PiggybackBytes = m.Sent * c.nodes[0].inst.WireSize()
	return m, nil
}
