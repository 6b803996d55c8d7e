package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/obs"
	"github.com/rdt-go/rdt/internal/transport"
	"github.com/rdt-go/rdt/internal/vclock"
)

// ErrCrashed is returned by operations on a process that has fail-stopped
// (Node.Crash) and has not been restarted.
var ErrCrashed = errors.New("process has crashed")

// Node is the handle of one process of a cluster. Its exported methods are
// safe for concurrent use: they enqueue operations that the node's
// goroutine executes in order, preserving the sequential-process model.
type Node struct {
	c    *Cluster
	proc int
	inst core.Instance

	// dec is the piggyback decode scratch: the node goroutine is the only
	// decoder for this node, so delivered frames reuse one set of buffers.
	dec pbScratch
	// enc is the piggyback every send writes with SendInto and encodes
	// into its frame; like dec, only the node goroutine uses it.
	enc core.Piggyback

	// mu guards the crash/restart lifecycle: mailbox and done are
	// replaced on restart, crashed gates the operation entry points.
	mu      sync.Mutex
	crashed bool
	mailbox *mailbox
	done    chan struct{}
}

// op is one unit of work for the node goroutine.
type op struct {
	kind    opKind
	to      int    // opSend
	payload []byte // opSend
	frame   []byte // opFrame
	query   chan Status
	beat    func() // opBeat: liveness ack, runs in the node goroutine

	// arrived stamps when an opFrame entered the mailbox; zero when
	// observability is off.
	arrived time.Time
}

type opKind int

const (
	opSend opKind = iota + 1
	opCheckpoint
	opFrame
	opQuery
	opBeat
)

// Status is a point-in-time view of a node's protocol state.
type Status struct {
	Proc     int
	Interval int
	TDV      vclock.Vec
	Basic    int
	Forced   int
}

func newNode(c *Cluster, proc int) (*Node, error) {
	n := &Node{
		c:       c,
		proc:    proc,
		mailbox: newMailbox(c.ins.queueDepth(proc)),
		done:    make(chan struct{}),
	}
	inst, err := core.New(c.cfg.Protocol, proc, c.cfg.N, c.recordCheckpoint)
	if err != nil {
		return nil, err
	}
	n.inst = inst
	n.enc = c.cfg.Protocol.NewPiggyback(c.cfg.N)
	return n, nil
}

func (n *Node) start() {
	n.mu.Lock()
	mb, done := n.mailbox, n.done
	n.mu.Unlock()
	go n.loop(mb, done)
}

func (n *Node) stop() {
	n.mu.Lock()
	mb, done := n.mailbox, n.done
	n.mu.Unlock()
	mb.close()
	<-done
}

// Proc returns the node's process identifier.
func (n *Node) Proc() int { return n.proc }

// Send asynchronously sends an application message to another process.
func (n *Node) Send(to int, payload []byte) error {
	if to == n.proc || to < 0 || to >= n.c.cfg.N {
		return fmt.Errorf("send: invalid destination %d", to)
	}
	return n.enqueue(op{kind: opSend, to: to, payload: payload})
}

// Checkpoint asynchronously takes a basic local checkpoint.
func (n *Node) Checkpoint() error {
	return n.enqueue(op{kind: opCheckpoint})
}

// ping enqueues a liveness probe: ack runs in the node goroutine once
// every operation queued before it has executed. A crashed node rejects
// the probe with ErrCrashed immediately; a stalled node (wedged handler,
// unbounded backlog) accepts it and never acks — exactly the signal the
// supervisor's accrual detector consumes.
func (n *Node) ping(ack func()) error {
	return n.enqueue(op{kind: opBeat, beat: ack})
}

// Status returns the node's current protocol state. It synchronizes with
// the node goroutine, so it reflects all operations enqueued before it.
func (n *Node) Status() (Status, error) {
	reply := make(chan Status, 1)
	if err := n.enqueue(op{kind: opQuery, query: reply}); err != nil {
		return Status{}, err
	}
	st, ok := <-reply
	if !ok {
		// The node crashed with the query still queued.
		return Status{}, ErrCrashed
	}
	return st, nil
}

// Crash fail-stops the process: its goroutine exits, queued operations
// are discarded, and frames addressed to it are dropped until Restart.
// The protocol instance and everything already persisted survive —
// exactly the state a real process recovers from stable storage. Crash
// is the failure half of the crash/recovery loop; Cluster.Restart and
// Cluster.Recover are the repair halves. It returns once the process's
// current operation, if any, has finished.
func (n *Node) Crash() error {
	done, err := n.failStop()
	if err == nil {
		<-done
	}
	return err
}

// failStop is Crash without the wait: the node is marked crashed and its
// backlog discarded at once, and the returned channel closes when the
// goroutine has finished its current operation and exited. The
// supervisor uses it from clock callbacks, which must not block on a
// wedged handler.
func (n *Node) failStop() (<-chan struct{}, error) {
	if n.c.isStopped() {
		return nil, ErrStopped
	}
	n.mu.Lock()
	if n.crashed {
		n.mu.Unlock()
		return nil, ErrCrashed
	}
	n.crashed = true
	mb, done := n.mailbox, n.done
	n.mu.Unlock()

	// The goroutine's exit counts as active work, so Settle waits until
	// a fail-stopped node has finished its last operation.
	n.c.active.add(1)
	go func() {
		<-done
		n.c.active.done()
	}()
	dropped := mb.crash()
	for _, o := range dropped {
		// Every queued item held one outstanding and one active count; a
		// dropped query also has a caller blocked on its reply channel.
		n.c.outstanding.done()
		n.c.active.done()
		if o.query != nil {
			close(o.query)
		}
	}
	n.c.noteCrash(n.proc, len(dropped))
	return done, nil
}

// restart brings a crashed node back with a fresh mailbox; the protocol
// state resumes where the instance left off.
func (n *Node) restart() {
	n.mu.Lock()
	n.crashed = false
	n.mailbox = newMailbox(n.c.ins.queueDepth(n.proc))
	n.done = make(chan struct{})
	mb, done := n.mailbox, n.done
	n.mu.Unlock()
	go n.loop(mb, done)
}

// isCrashed reports whether the node is currently fail-stopped.
func (n *Node) isCrashed() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.crashed
}

func (n *Node) enqueue(o op) error {
	if n.c.isStopped() {
		return ErrStopped
	}
	n.mu.Lock()
	if n.crashed {
		n.mu.Unlock()
		return ErrCrashed
	}
	mb := n.mailbox
	n.mu.Unlock()
	n.c.outstanding.add(1)
	n.c.active.add(1)
	if !mb.put(o) {
		n.c.outstanding.done()
		n.c.active.done()
		return ErrStopped
	}
	return nil
}

// onFrame is the transport handler: it hands the frame to the node
// goroutine. It must not block. Frames for a crashed node are dropped —
// they died with the process; the message log replays them if the
// recovery line needs them.
func (n *Node) onFrame(f transport.Frame) {
	o := op{kind: opFrame, frame: f.Data}
	if n.c.ins != nil {
		o.arrived = time.Now()
	}
	n.mu.Lock()
	mb := n.mailbox
	n.mu.Unlock()
	// The sender already accounted for this frame in outstanding; the
	// active count starts only now, when the frame becomes a queued op.
	n.c.active.add(1)
	if !mb.put(o) {
		n.c.outstanding.done() // dropped: crash or shutdown
		n.c.active.done()
	}
}

func (n *Node) loop(mb *mailbox, done chan struct{}) {
	defer close(done)
	for {
		o, ok := mb.take()
		if !ok {
			return
		}
		n.execute(o)
	}
}

func (n *Node) execute(o op) {
	// Release outstanding before active: once Settle sees no active
	// work, Quiesce's count already reflects every executed operation.
	defer n.c.active.done()
	defer n.c.outstanding.done()
	switch o.kind {
	case opSend:
		n.doSend(o.to, o.payload)
	case opCheckpoint:
		n.inst.TakeBasicCheckpoint()
	case opFrame:
		if ins := n.c.ins; ins != nil && !o.arrived.IsZero() {
			ins.deliveryLatency.Observe(time.Since(o.arrived).Seconds())
		}
		n.doDeliver(o.frame)
	case opBeat:
		o.beat()
	case opQuery:
		o.query <- Status{
			Proc:     n.proc,
			Interval: n.inst.CurrentInterval(),
			TDV:      n.inst.TDV(),
			Basic:    n.inst.Basic(),
			Forced:   n.inst.Forced(),
		}
	}
}

func (n *Node) doSend(to int, payload []byte) {
	forceAfter := n.inst.SendInto(to, &n.enc)
	handle := n.c.recordSend(n.proc, to, payload)
	if ins := n.c.ins; ins != nil {
		ins.sends.Inc()
		ins.piggybackBytes.Add(int64(n.inst.WireSize()))
		ins.tracer.Record(obs.Event{
			Type: obs.EventSend, Proc: n.proc, Peer: to, Value: handle,
		})
	}
	if forceAfter {
		n.inst.CheckpointAfterSend()
	}
	data, err := encodeMsg(n.proc, handle, payload, n.enc)
	if err != nil {
		// Encoding our own structures cannot fail in practice; losing the
		// message would corrupt the trace, so fail loudly.
		panic(fmt.Sprintf("cluster: %v", err))
	}
	n.c.outstanding.add(1) // the in-flight frame
	if err := n.c.trans.Send(transport.Frame{From: n.proc, To: to, Data: data}); err != nil {
		// The frame never left: release its accounting and surface the
		// error. The send stays in the trace as a lost message, exactly
		// what happened on the wire.
		n.c.outstanding.done()
		n.c.reportError(fmt.Errorf("transport send P%d->P%d: %w", n.proc, to, err))
	}
}

func (n *Node) doDeliver(frame []byte) {
	from, handle, payload, pb, err := decodeMsgInto(frame, &n.dec)
	if err != nil {
		panic(fmt.Sprintf("cluster: %v", err))
	}
	n.inst.OnArrival(from, pb)
	if err := n.c.recordDeliver(handle); err != nil {
		panic(fmt.Sprintf("cluster: %v", err))
	}
	if ins := n.c.ins; ins != nil {
		ins.deliveries.Inc()
		ins.tracer.Record(obs.Event{
			Type: obs.EventDeliver, Proc: n.proc, Peer: from, Value: handle,
		})
	}
	if n.c.cfg.Handler != nil {
		n.c.cfg.Handler(n, from, payload)
	}
}

// mailbox is an unbounded FIFO queue with shutdown semantics. Transports
// deliver into it without blocking, which is what keeps the cluster free
// of send/receive deadlocks. The depth gauge (nil-safe, may be nil)
// tracks the queue length for live introspection.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []op
	closed bool
	depth  *obs.Gauge
}

func newMailbox(depth *obs.Gauge) *mailbox {
	m := &mailbox{depth: depth}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// put appends an item; it reports false when the mailbox is closed.
func (m *mailbox) put(o op) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	m.items = append(m.items, o)
	m.depth.Set(int64(len(m.items)))
	m.cond.Signal()
	return true
}

// take removes the oldest item, blocking until one is available; it
// reports false once the mailbox is closed and drained.
func (m *mailbox) take() (op, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.items) == 0 && !m.closed {
		m.cond.Wait()
	}
	if len(m.items) == 0 {
		return op{}, false
	}
	o := m.items[0]
	m.items = m.items[1:]
	m.depth.Set(int64(len(m.items)))
	return o, true
}

// close marks the mailbox closed and wakes the consumer; queued items
// are still drained.
func (m *mailbox) close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.cond.Broadcast()
}

// crash closes the mailbox and discards the backlog, returning the
// dropped items so the caller can release their accounting.
func (m *mailbox) crash() []op {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	dropped := m.items
	m.items = nil
	m.depth.Set(0)
	m.cond.Broadcast()
	return dropped
}
