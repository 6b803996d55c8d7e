package scenario

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"github.com/rdt-go/rdt/internal/cluster"
	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/obs"
	"github.com/rdt-go/rdt/internal/recovery"
	"github.com/rdt-go/rdt/internal/rgraph"
	"github.com/rdt-go/rdt/internal/storage"
	"github.com/rdt-go/rdt/internal/transport"
	"github.com/rdt-go/rdt/internal/vtime"
)

// Result is what one scenario run produced.
type Result struct {
	Name string
	// Verdict is "rdt" or "violation" for the final incarnation's
	// recorded pattern, judged by the batch analyzer and cross-checked
	// against an online replay.
	Verdict string
	// Pattern is the final incarnation's communication-and-checkpoint
	// pattern.
	Pattern *model.Pattern
	// Sent counts the sends the cluster accepted.
	Sent int
	// Delivered counts application deliveries across all incarnations.
	Delivered int
	// Lost counts messages lost across the run: per-recovery losses plus
	// the final lossy stop.
	Lost int
	// Recovered lists processes that crashed and were autonomously
	// recovered by the supervisor, in the order their failovers
	// completed.
	Recovered []int
	// Line is the recovery line computed from the final store.
	Line []int
	// SimTime is how much virtual time the run covered.
	SimTime time.Duration
	// Transcript is the deterministic run log: one line per directive
	// and per delivery, byte-identical across runs of the same file.
	Transcript string
	// Failures lists every violated 'expect' assertion; empty means the
	// scenario passed.
	Failures []string
}

// Passed reports whether every expectation held.
func (r *Result) Passed() bool { return len(r.Failures) == 0 }

// runner is the live state of one scenario execution.
type runner struct {
	sc     *Scenario
	v      *vtime.Virtual
	start  time.Time
	reg    *obs.Registry
	tracer *obs.Tracer

	faulty *transport.Faulty // current incarnation's injector, nil without faults
	cur    *cluster.Cluster  // current incarnation (unsupervised)
	sup    *cluster.Supervisor

	mu        sync.Mutex
	lines     []string
	delivered int
	nextFault *transport.Faulty // injector built by the pending recovery attempt

	msgSeq     int
	sent       int
	lost       int
	recovered  []int
	crashedNow []int
	lastInc    int
	runErr     error
}

// Run executes a parsed scenario to completion under a virtual clock and
// checks its expectations. The cluster, fault injector and
// retransmission layer report into reg and tracer; nil means none. The
// returned error reports a harness failure (the run could not be
// executed); expectation mismatches are reported in Result.Failures
// instead.
func Run(sc *Scenario, reg *obs.Registry, tracer *obs.Tracer) (*Result, error) {
	r := &runner{sc: sc, v: vtime.NewVirtual(time.Time{}), reg: reg, tracer: tracer}
	r.start = r.v.Now()

	trans, faulty := r.newStack(sc.Seed)
	r.faulty = faulty
	c, err := cluster.New(cluster.Config{
		N:           sc.N,
		Protocol:    sc.Protocol,
		Transport:   trans,
		Store:       storage.NewMemory(),
		LogPayloads: true,
		Handler:     r.onDeliver,
		OnError:     r.onError,
		Obs:         reg,
		Tracer:      tracer,
	})
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	r.cur = c

	if sc.Supervise {
		sup, err := cluster.Supervise(c, cluster.SupervisorConfig{
			Interval:     10 * time.Millisecond,
			Seed:         sc.Seed,
			DrainTimeout: 100 * time.Millisecond,
			Clock:        r.v,
			Options:      r.recoverOptions,
			OnRecover:    r.onRecover,
		})
		if err != nil {
			r.abandon()
			return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		r.sup = sup
		r.lastInc = 1
	}

	r.logf("scenario %s procs=%d protocol=%v seed=%d", sc.Name, sc.N, sc.Protocol, sc.Seed)
	res, err := r.run()
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	return res, nil
}

// newStack builds one incarnation's transport stack on the shared
// virtual clock: local delivery jitter, then the fault injector when the
// scenario needs one, then retransmission.
func (r *runner) newStack(seed int64) (transport.Transport, *transport.Faulty) {
	var t transport.Transport = transport.NewLocalWith(transport.LocalConfig{
		MaxDelay: r.sc.Delay,
		Seed:     seed,
		Clock:    r.v,
	})
	var faulty *transport.Faulty
	if r.sc.needsFaulty() {
		faulty = transport.WithFaults(t, transport.FaultConfig{
			Seed:    seed,
			Default: r.sc.Faults,
			Clock:   r.v,
			Obs:     r.reg,
			Tracer:  r.tracer,
		})
		t = faulty
	}
	if r.sc.Reliable {
		t = transport.Reliable(t, transport.ReliableConfig{
			Seed:   seed,
			Clock:  r.v,
			Obs:    r.reg,
			Tracer: r.tracer,
			OnGiveUp: func(f transport.Frame, err error) {
				if r.sup != nil {
					r.sup.OnGiveUp(f, err)
				}
			},
		})
	}
	return t, faulty
}

// recoverOptions supplies each supervised recovery attempt with a fresh
// store and a fresh virtual-clock transport stack. The attempt's
// injector is staged and only becomes the run's current one when the
// recovery succeeds (onRecover).
func (r *runner) recoverOptions(incarnation, attempt int) cluster.RecoverOptions {
	t, faulty := r.newStack(r.sc.Seed + int64(incarnation)*100 + int64(attempt))
	r.mu.Lock()
	r.nextFault = faulty
	r.mu.Unlock()
	return cluster.RecoverOptions{
		Store:     storage.NewMemory(),
		Transport: t,
	}
}

// onRecover commits a successful failover: the staged injector becomes
// current and the crashes it repaired are recorded as recovered.
func (r *runner) onRecover(res *cluster.RecoverResult) {
	r.mu.Lock()
	r.faulty = r.nextFault
	r.lost += len(res.Lost)
	r.mu.Unlock()
}

func (r *runner) onDeliver(n *cluster.Node, from int, payload []byte) {
	r.mu.Lock()
	r.delivered++
	r.lines = append(r.lines, fmt.Sprintf("t=%v deliver %d<-%d %s",
		r.v.Now().Sub(r.start), n.Proc(), from, payload))
	r.mu.Unlock()
}

func (r *runner) onError(err error) {
	r.mu.Lock()
	if r.runErr == nil {
		r.runErr = err
	}
	r.mu.Unlock()
}

func (r *runner) logf(format string, args ...any) {
	r.mu.Lock()
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// stepf logs one directive line, stamped with its virtual instant.
func (r *runner) stepf(format string, args ...any) {
	r.logf("t=%v %s", r.v.Now().Sub(r.start), fmt.Sprintf(format, args...))
}

// cl is the current incarnation.
func (r *runner) cl() *cluster.Cluster {
	if r.sup != nil {
		return r.sup.Cluster()
	}
	return r.cur
}

func (r *runner) settle() { r.cl().Settle() }

// advance moves virtual time forward by dt, firing every due timer in
// deterministic order and quiescing the cluster between firings so
// exactly one operation is in flight at a time.
func (r *runner) advance(dt time.Duration) {
	if dt > 0 {
		r.v.AdvanceUntilIdle(dt, r.settle)
	}
}

// drain keeps advancing until the timer heap is empty (bounded — a
// supervised run's probes re-arm forever, so one window is the whole
// drain there).
func (r *runner) drain() {
	if r.sup != nil {
		r.advance(r.sc.Drain)
		return
	}
	for i := 0; r.v.Pending() > 0 && i < 64; i++ {
		r.advance(r.sc.Drain)
	}
}

// abandon tears the run down after a harness error.
func (r *runner) abandon() {
	if r.sup != nil {
		r.sup.Stop()
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, _ = r.cl().StopLossy(ctx)
}

func (r *runner) run() (*Result, error) {
	prev := time.Duration(0)
	for _, st := range r.sc.Steps {
		r.advance(st.At - prev)
		prev = st.At
		if err := r.exec(st); err != nil {
			r.abandon()
			return nil, err
		}
		r.settle()
		r.mu.Lock()
		err := r.runErr
		r.mu.Unlock()
		if err != nil {
			r.abandon()
			return nil, err
		}
	}
	r.drain()
	return r.finish()
}

// exec runs one directive. Directives addressed to a crashed process
// log a rejection instead of failing the run — crashing a process and
// then racing traffic into it is exactly what a chaos scenario does.
func (r *runner) exec(st Step) error {
	c := r.cl()
	switch st.Op {
	case OpCheckpoint:
		if err := c.Node(st.A).Checkpoint(); err != nil {
			r.stepf("checkpoint %d rejected: %v", st.A, err)
			return nil
		}
		r.stepf("checkpoint %d", st.A)
	case OpSend:
		r.send(c, st.A, st.B)
	case OpBcast:
		r.stepf("bcast %d", st.A)
		for to := 0; to < r.sc.N; to++ {
			if to != st.A {
				r.send(c, st.A, to)
			}
		}
	case OpTraffic:
		r.stepf("traffic %s rounds=%d", st.Mode, st.Rounds)
		r.traffic(st)
	case OpPartition:
		r.faulty.Partition(st.A, st.B)
		r.stepf("partition %d %d", st.A, st.B)
	case OpHeal:
		r.faulty.Heal(st.A, st.B)
		r.stepf("heal %d %d", st.A, st.B)
	case OpHealAll:
		r.faulty.HealAll()
		r.stepf("heal-all")
	case OpIsolate:
		for p := 0; p < r.sc.N; p++ {
			if p != st.A {
				r.faulty.Partition(st.A, p)
			}
		}
		r.stepf("disconnect %d for=%v", st.A, st.Dur)
	case OpReconnect:
		for p := 0; p < r.sc.N; p++ {
			if p != st.A {
				r.faulty.Heal(st.A, p)
			}
		}
		r.stepf("reconnect %d", st.A)
	case OpCrash:
		if err := c.Node(st.A).Crash(); err != nil {
			r.stepf("crash %d rejected: %v", st.A, err)
			return nil
		}
		r.crashedNow = append(r.crashedNow, st.A)
		r.stepf("crash %d", st.A)
	case OpRestart:
		if err := c.Restart(st.A); err != nil {
			r.stepf("restart %d rejected: %v", st.A, err)
			return nil
		}
		r.stepf("restart %d", st.A)
	case OpRecover:
		return r.recoverNow()
	case OpAwaitRecovery:
		return r.awaitRecovery()
	case OpSettle:
		r.drain()
		r.stepf("settle")
	}
	return nil
}

// send issues one tagged message and settles, so builder handles and
// sequence numbers are assigned in schedule order.
func (r *runner) send(c *cluster.Cluster, from, to int) {
	tag := fmt.Sprintf("m%d", r.msgSeq)
	r.msgSeq++
	if err := c.Node(from).Send(to, []byte(tag)); err != nil {
		r.stepf("send %d %d rejected: %v", from, to, err)
		return
	}
	r.sent++
	r.stepf("send %d %d %s", from, to, tag)
	c.Settle()
}

// traffic expands one traffic directive: per round, every alive process
// sends along the mode's topology, then every alive process checkpoints
// — the paper's environments, made concrete.
func (r *runner) traffic(st Step) {
	c := r.cl()
	crashed := make(map[int]bool)
	for _, p := range c.Crashed() {
		crashed[p] = true
	}
	alive := func(p int) bool { return !crashed[p] }
	rng := rand.New(rand.NewSource(r.sc.Seed ^ 0x7261666369)) // "traffic"
	for round := 0; round < st.Rounds; round++ {
		switch st.Mode {
		case TrafficRing:
			for i := 0; i < r.sc.N; i++ {
				to := (i + 1) % r.sc.N
				if alive(i) && alive(to) {
					r.send(c, i, to)
				}
			}
		case TrafficPairs:
			for i := 0; i+1 < r.sc.N; i += 2 {
				if alive(i) && alive(i+1) {
					r.send(c, i, i+1)
					r.send(c, i+1, i)
				}
			}
		case TrafficClientServer:
			for i := 1; i < r.sc.N; i++ {
				if alive(i) && alive(0) {
					r.send(c, i, 0)
					r.send(c, 0, i)
				}
			}
		case TrafficRandom:
			for i := 0; i < r.sc.N; i++ {
				from := rng.Intn(r.sc.N)
				to := rng.Intn(r.sc.N - 1)
				if to >= from {
					to++
				}
				if alive(from) && alive(to) {
					r.send(c, from, to)
				}
			}
		case TrafficDBTxn:
			// One distributed transaction per round, two-phase-commit
			// shape: the coordinator (process 0) sends prepare to every
			// participant, each participant answers with its vote, and
			// the coordinator broadcasts the decision. The checkpoint
			// sweep below is the transaction boundary every process
			// forces before the next transaction starts.
			for i := 1; i < r.sc.N; i++ {
				if alive(0) && alive(i) {
					r.send(c, 0, i) // prepare
					r.send(c, i, 0) // vote
				}
			}
			for i := 1; i < r.sc.N; i++ {
				if alive(0) && alive(i) {
					r.send(c, 0, i) // decision
				}
			}
		}
		for i := 0; i < r.sc.N; i++ {
			if alive(i) {
				if err := c.Node(i).Checkpoint(); err == nil {
					r.stepf("checkpoint %d", i)
					c.Settle()
				}
			}
		}
	}
}

// recoverNow runs one unsupervised full rollback recovery: stop the
// current incarnation lossily, compute the recovery line, start a new
// incarnation on a fresh virtual transport with the crossing messages
// replayed.
func (r *runner) recoverNow() error {
	t, faulty := r.newStack(r.sc.Seed + 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // drained by the schedule; classify stragglers as lost now
	res, err := r.cur.Recover(ctx, cluster.RecoverOptions{
		Store:     storage.NewMemory(),
		Transport: t,
	})
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	r.cur = res.Cluster
	r.faulty = faulty
	r.mu.Lock()
	r.lost += len(res.Lost)
	r.mu.Unlock()
	r.stepf("recover line=%v rollback=%d replayed=%d lost=%d",
		[]int(res.Plan.Line), res.Plan.TotalRollback(), len(res.Replayed), len(res.Lost))
	return nil
}

// awaitRecovery advances virtual time, settling the cluster between
// firings, until the supervisor completes a failover (the incarnation
// number moves past the last one awaited). The supervisor runs inside
// the clock's callbacks, so the wait is bounded in virtual time alone.
func (r *runner) awaitRecovery() error {
	const step, limit = 10 * time.Millisecond, time.Minute
	for waited := time.Duration(0); ; waited += step {
		select {
		case <-r.sup.Done():
			return fmt.Errorf("await-recovery: supervisor escalated and stopped")
		default:
		}
		if inc := r.sup.Incarnation(); inc > r.lastInc {
			r.lastInc = inc
			r.recovered = append(r.recovered, r.crashedNow...)
			r.crashedNow = nil
			r.stepf("recovered incarnation=%d", inc)
			return nil
		}
		if waited >= limit {
			return fmt.Errorf("await-recovery: no failover after %v virtual", r.v.Now().Sub(r.start))
		}
		r.advance(step)
	}
}

// finish stops the run, computes the verdict (batch, cross-checked
// online), the recovery line, and the expectation failures.
func (r *runner) finish() (*Result, error) {
	if r.sup != nil {
		r.sup.Stop()
	}
	c := r.cl()
	finalStore := c.Store()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // virtual drain already ran; anything still in flight is lost
	pattern, lostMsgs, err := c.StopLossy(ctx)
	if err != nil {
		return nil, fmt.Errorf("stop: %w", err)
	}

	res := &Result{
		Name:      r.sc.Name,
		Pattern:   pattern,
		Sent:      r.sent,
		Recovered: r.recovered,
		SimTime:   r.v.Now().Sub(r.start),
	}
	r.mu.Lock()
	res.Delivered = r.delivered
	res.Lost = r.lost + len(lostMsgs)
	runErr := r.runErr
	r.mu.Unlock()
	if runErr != nil {
		return nil, fmt.Errorf("cluster error: %w", runErr)
	}

	report, err := rgraph.CheckRDT(pattern, 4)
	if err != nil {
		return nil, fmt.Errorf("batch check: %w", err)
	}
	inc, err := rgraph.ReplayIncremental(pattern)
	if err != nil {
		return nil, fmt.Errorf("online replay: %w", err)
	}
	if inc.RDT() != report.RDT {
		return nil, fmt.Errorf("verdict divergence: batch rdt=%v, online rdt=%v (violations=%d)",
			report.RDT, inc.RDT(), inc.Violations())
	}
	res.Verdict = "violation"
	if report.RDT {
		res.Verdict = "rdt"
	}

	mgr, err := recovery.NewManager(finalStore, r.sc.N)
	if err != nil {
		return nil, fmt.Errorf("recovery manager: %w", err)
	}
	bounds, err := mgr.Latest()
	if err == nil {
		if plan, perr := mgr.LineFrom(bounds); perr == nil {
			res.Line = append([]int(nil), plan.Line...)
		}
	}

	r.stepf("verdict %s delivered=%d lost=%d", res.Verdict, res.Delivered, res.Lost)
	if res.Line != nil {
		r.logf("line %v", res.Line)
	}
	r.mu.Lock()
	res.Transcript = strings.Join(r.lines, "\n") + "\n"
	r.mu.Unlock()

	res.Failures = r.checkExpect(res)
	return res, nil
}

// checkExpect compares the result against the scenario's trailer.
func (r *runner) checkExpect(res *Result) []string {
	var fails []string
	e := r.sc.Expect
	if e.Verdict != "" && res.Verdict != e.Verdict {
		fails = append(fails, fmt.Sprintf("verdict: want %s, have %s", e.Verdict, res.Verdict))
	}
	if res.Delivered < e.MinDelivered {
		fails = append(fails, fmt.Sprintf("delivered: want >=%d, have %d", e.MinDelivered, res.Delivered))
	}
	if e.HasLost && res.Lost != e.Lost {
		fails = append(fails, fmt.Sprintf("lost: want %d, have %d", e.Lost, res.Lost))
	}
	for _, want := range e.Recovered {
		found := false
		for _, got := range res.Recovered {
			if got == want {
				found = true
				break
			}
		}
		if !found {
			fails = append(fails, fmt.Sprintf("recovered: process %d was not autonomously recovered (recovered=%v)", want, res.Recovered))
		}
	}
	if e.HasLine {
		match := len(res.Line) == len(e.Line)
		if match {
			for i := range e.Line {
				if res.Line[i] != e.Line[i] {
					match = false
					break
				}
			}
		}
		if !match {
			fails = append(fails, fmt.Sprintf("line: want %v, have %v", e.Line, res.Line))
		}
	}
	return fails
}
