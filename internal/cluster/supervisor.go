package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/obs"
	"github.com/rdt-go/rdt/internal/storage"
	"github.com/rdt-go/rdt/internal/transport"
	"github.com/rdt-go/rdt/internal/vtime"
)

// Suspicion reasons, used as metric label values and event details.
const (
	// SuspectCrash: a heartbeat probe was rejected with ErrCrashed — the
	// process has explicitly fail-stopped.
	SuspectCrash = "crash"
	// SuspectTimeout: the accrual detector's suspicion level crossed the
	// threshold — the process accepts probes but is not executing them
	// (wedged handler, unbounded backlog).
	SuspectTimeout = "timeout"
	// SuspectUnreachable: an external signal (ReportUnreachable, e.g.
	// wired from transport.ReliableConfig.OnGiveUp) declared the process
	// unreachable — its links are partitioned beyond the retry budget.
	SuspectUnreachable = "unreachable"
)

// The detector and retry constants every Supervisor runs with.
const (
	// beatWindow is the number of recent heartbeat gaps the accrual
	// detector keeps per process — the sample the expected-gap
	// distribution is estimated from.
	beatWindow = 64
	// phiThreshold is the suspicion threshold, φ-accrual style:
	// suspicion fires when the current gap's upper-tail probability
	// under the observed gap distribution drops below 10^-phiThreshold.
	phiThreshold = 8
	// minGapIntervals floors, in probe intervals, the gap below which
	// suspicion never fires, whatever φ says — the guard against false
	// positives from scheduler hiccups and load bursts the window has
	// not absorbed yet. The floor is 20×Interval.
	minGapIntervals = 20
	// confirmTicks is the number of consecutive over-threshold
	// evaluations that confirm a timeout suspicion. Crash detection
	// confirms immediately — ErrCrashed is definitive.
	confirmTicks = 2
	// maxAttempts bounds the autonomous recovery attempts per detected
	// failure; when they are exhausted the supervisor escalates and
	// stops.
	maxAttempts = 3
	// firstBackoff is the delay before the second attempt; it doubles
	// per attempt up to maxBackoff, with up to 50% seeded jitter.
	firstBackoff = 25 * time.Millisecond
	maxBackoff   = time.Second
)

// SupervisorConfig parameterizes Supervise.
type SupervisorConfig struct {
	// Interval is the heartbeat probe period. Each probe, the supervisor
	// enqueues a liveness probe into every node's mailbox; the node
	// goroutine acks it in order with its other operations, so the ack
	// gap measures the event loop's actual responsiveness. It also sets
	// the gap below which no timeout is suspected: 20×Interval.
	// Default 10ms.
	Interval time.Duration
	// Seed makes the jitter schedule reproducible. Zero seeds from 1.
	Seed int64
	// DrainTimeout bounds, in Clock time, the lossy stop's quiescence
	// wait when a failover begins; expiring just classifies more
	// messages as lost. Default 5s.
	DrainTimeout time.Duration

	// Options, if non-nil, supplies the RecoverOptions of each recovery
	// attempt: incarnation is the number of the incarnation being built
	// (the supervised cluster is incarnation 1, so the first recovery
	// builds 2), attempt restarts at 1 per failure. Each attempt should
	// get a fresh store and transport — a transport consumed by a failed
	// attempt cannot be reused. Nil means every attempt uses a fresh
	// in-memory store and a default local transport.
	Options func(incarnation, attempt int) RecoverOptions
	// OnRecover, if non-nil, is called after every successful autonomous
	// recovery; the new incarnation is already running and supervised.
	// OnRecover and OnEscalate run inside the supervisor's clock
	// callback: they must not block, advance the clock, or call Stop.
	OnRecover func(*RecoverResult)
	// OnEscalate, if non-nil, is called once when all the recovery
	// attempts for one failure have failed, with the last attempt's
	// error. The supervisor stops after escalating: the cluster is down
	// and repairing it now needs an operator.
	OnEscalate func(error)

	// Clock drives the probes, the gap measurements, the drain deadline
	// and the retry backoff. Nil means the wall clock; a vtime.Virtual
	// runs the whole failover inside its Advance calls.
	Clock vtime.Clock
}

// Supervisor watches a cluster through periodic heartbeat probes and
// drives Cluster.Recover autonomously when a process fails. Detection is
// φ-accrual style: per process, the supervisor keeps a window of
// observed heartbeat gaps and suspects when the current gap becomes
// implausible under that distribution — so a uniformly slow (loaded,
// delay-injected) but live node keeps raising its own expected gap and
// is never suspected, while a crashed or wedged one is.
//
// The supervisor is a state machine driven by its clock: each probe,
// drain check and retry is one clock callback that re-arms itself, and
// a failure moves it through watch → fail-stop → drain → attempt (→
// backoff → attempt) → watch, or escalates once maxAttempts attempts
// have failed. No step blocks, so under a virtual clock the whole
// failover runs inside Advance calls.
//
// The supervisor owns failover: do not call Stop, Recover, or Restart on
// a supervised cluster directly — call Supervisor.Stop first, then
// operate on Supervisor.Cluster().
type Supervisor struct {
	cfg      SupervisorConfig
	clock    vtime.Clock
	loop     *vtime.Loop
	done     chan struct{}
	doneOnce sync.Once

	// Only steps (and Supervise) write c, inc and tracks, so steps read
	// them without mu; mu orders them for everyone else.
	mu     sync.Mutex
	c      *Cluster
	inc    int // incarnation number of c, starting at 1
	tracks []*beatTrack

	// Failover state, touched only by steps (which never overlap).
	phase    phase
	rng      *rand.Rand
	exiting  []<-chan struct{} // goroutines of fail-stopped suspects
	crashed  []int
	drainEnd time.Time
	pattern  *model.Pattern
	lost     []model.LostMessage
	attempt  int
	backoff  time.Duration

	ins supInstruments
}

// phase is where a supervisor's failover stands.
type phase int

const (
	watching    phase = iota // probing every Interval
	failStopped              // suspects crashed; waiting for their goroutines to exit
	draining                 // incarnation stopping; waiting for in-flight work
	recovering               // attempting recovery, backing off between attempts
)

// Supervise attaches a supervisor to a running cluster and starts
// monitoring. The cluster must have been built with LogPayloads (the
// autonomous recovery replays the message log, exactly like the manual
// path).
func Supervise(c *Cluster, cfg SupervisorConfig) (*Supervisor, error) {
	if c == nil {
		return nil, errors.New("cluster: supervise: nil cluster")
	}
	if c.isStopped() {
		return nil, ErrStopped
	}
	if c.payloads == nil { // set once by New
		return nil, errors.New("cluster: supervise requires LogPayloads")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 10 * time.Millisecond
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	s := &Supervisor{
		cfg:   cfg,
		clock: vtime.Or(cfg.Clock),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		done:  make(chan struct{}),
		inc:   1,
		ins: supInstruments{
			reg:    c.cfg.Obs,
			tracer: c.cfg.Tracer,
			heartbeatGap: c.cfg.Obs.Histogram(
				"rdt_supervisor_heartbeat_gap_seconds", obs.LatencyBuckets),
		},
	}
	s.adopt(c)
	s.loop = vtime.Repeat(s.clock, cfg.Interval, s.step)
	return s, nil
}

// Cluster returns the current incarnation. After an autonomous recovery
// the returned cluster differs from the one Supervise was given; the
// supervisor is the stable handle.
func (s *Supervisor) Cluster() *Cluster {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c
}

// Incarnation returns the current incarnation number: 1 for the cluster
// Supervise was given, +1 per completed autonomous recovery.
func (s *Supervisor) Incarnation() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inc
}

// Stop halts monitoring: it cancels the pending step and waits for a
// running one to return. It does not stop the cluster: stop the
// supervisor first, then drive Cluster() through its normal shutdown.
// A failover that Stop cuts short after the old incarnation began
// stopping is torn down here instead. Stop is idempotent.
func (s *Supervisor) Stop() {
	s.loop.Stop()
	s.mu.Lock() // against a concurrent Stop; no step runs any more
	abandoned := s.phase == draining
	s.phase = watching
	s.mu.Unlock()
	if abandoned {
		_, _, _ = s.c.finishLossy() // nobody is left to recover from it
	}
	s.end()
}

// Done is closed when supervision has ended — after Stop, an external
// cluster shutdown, or an escalation.
func (s *Supervisor) Done() <-chan struct{} { return s.done }

// end closes Done; its -1 return ends the step chain.
func (s *Supervisor) end() time.Duration {
	s.doneOnce.Do(func() { close(s.done) })
	return -1
}

// ReportUnreachable feeds an external unreachability signal for a
// process of the current incarnation: the next probe confirms it as a
// suspicion without waiting for the accrual detector. Out-of-range
// process ids are ignored.
func (s *Supervisor) ReportUnreachable(proc int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if proc >= 0 && proc < len(s.tracks) {
		s.tracks[proc].unreachable.Store(true)
	}
}

// OnGiveUp adapts the supervisor to transport.ReliableConfig.OnGiveUp: a
// frame the reliable layer abandoned after its full retry budget means
// the destination's links are partitioned beyond repair, so the
// destination is reported unreachable and fail-stopped by the next
// failover — the classic conversion of an unreachable process into a
// crashed one.
func (s *Supervisor) OnGiveUp(f transport.Frame, err error) { s.ReportUnreachable(f.To) }

// adopt installs a (new) incarnation: fresh per-process gap windows,
// primed with the probe interval so φ is defined from the first probe.
func (s *Supervisor) adopt(c *Cluster) {
	tracks := make([]*beatTrack, c.cfg.N)
	now := s.clock.Now()
	for i := range tracks {
		tracks[i] = newBeatTrack(now, s.cfg.Interval)
	}
	s.mu.Lock()
	if s.c != nil {
		s.inc++
	}
	s.c = c
	s.tracks = tracks
	s.mu.Unlock()
}

// step is one firing of the supervisor's clock. It advances the failover
// as far as it can without blocking and returns the delay to the next
// step, or -1 when supervision ends.
func (s *Supervisor) step() time.Duration {
	c := s.c
	if s.phase == watching {
		suspects, external := s.probe(c)
		if external {
			return s.end() // the owner stopped the cluster; nothing to supervise
		}
		if len(suspects) == 0 {
			return s.cfg.Interval
		}
		// Enforce fail-stop: a suspect that is merely wedged or
		// partitioned is crashed so the recovery-line computation sees
		// the same fault model for every failure kind. A wedged handler
		// keeps its goroutine until it returns; later steps wait that out
		// (a forever-stuck goroutine cannot be reaped in-process).
		for _, proc := range suspects {
			done, err := c.nodes[proc].failStop()
			if errors.Is(err, ErrStopped) {
				return s.end()
			}
			if err == nil { // ErrCrashed: already down, which is what we want
				s.exiting = append(s.exiting, done)
			}
		}
		// The probe's acks and the suspects' exits run on node
		// goroutines; the next step sees them settled.
		s.phase = failStopped
		return s.cfg.Interval
	}
	if s.phase == failStopped {
		for ; len(s.exiting) > 0; s.exiting = s.exiting[1:] {
			select {
			case <-s.exiting[0]:
			default:
				return s.cfg.Interval
			}
		}
		s.crashed = c.Crashed()
		if c.beginStop() != nil {
			return s.end() // stopped by its owner mid-failover
		}
		s.drainEnd = s.clock.Now().Add(s.cfg.DrainTimeout)
		s.phase = draining
	}
	if s.phase == draining {
		// The drain is measured on the supervisor's clock: in-flight
		// frames may be parked on that same clock, so waiting for them
		// inside a step could never end.
		if !c.outstanding.idle() && s.clock.Now().Before(s.drainEnd) {
			return s.cfg.Interval
		}
		s.phase = recovering
		var err error
		if s.pattern, s.lost, err = c.finishLossy(); err != nil {
			return s.escalate(fmt.Errorf("stop for recovery: %w", err))
		}
		s.attempt, s.backoff = 0, firstBackoff
	}
	s.attempt++
	res, err := c.recoverFrom(s.pattern, s.lost, s.crashed, s.options(s.inc+1, s.attempt))
	if err == nil {
		s.adopt(res.Cluster)
		s.phase, s.pattern, s.lost = watching, nil, nil
		s.ins.recovery("ok")
		if s.cfg.OnRecover != nil {
			s.cfg.OnRecover(res)
		}
		return s.cfg.Interval
	}
	s.ins.recovery("retry")
	if s.attempt == maxAttempts {
		return s.escalate(err)
	}
	d := s.jitter(s.backoff)
	s.backoff = min(2*s.backoff, maxBackoff)
	return d
}

// probe enqueues a heartbeat into every node and evaluates the accrual
// detector, returning the processes confirmed suspect. external reports
// that the cluster was stopped by its owner.
func (s *Supervisor) probe(c *Cluster) (suspects []int, external bool) {
	now := s.clock.Now()
	hist := s.ins.heartbeatGap
	for proc, track := range s.tracks {
		err := c.nodes[proc].ping(func() { track.beat(s.clock.Now(), hist) })
		if errors.Is(err, ErrStopped) {
			return nil, true
		}
		reason, gap := "", track.gapSince(now)
		switch {
		case errors.Is(err, ErrCrashed):
			reason = SuspectCrash
		case track.unreachable.Swap(false):
			reason = SuspectUnreachable
		case track.check(now, minGapIntervals*s.cfg.Interval):
			reason = SuspectTimeout
		}
		if reason != "" {
			s.ins.suspicion(proc, reason, gap)
			suspects = append(suspects, proc)
		}
	}
	return suspects, false
}

// options builds one attempt's RecoverOptions.
func (s *Supervisor) options(incarnation, attempt int) RecoverOptions {
	if s.cfg.Options != nil {
		return s.cfg.Options(incarnation, attempt)
	}
	// Fresh store, default transport: always retryable.
	return RecoverOptions{Store: storage.NewMemory()}
}

// escalate records that autonomous recovery is out of attempts, hands
// the failure to the operator callback, and ends supervision.
func (s *Supervisor) escalate(err error) time.Duration {
	s.ins.escalation(err)
	if s.cfg.OnEscalate != nil {
		s.cfg.OnEscalate(err)
	}
	return s.end()
}

// jitter returns d plus up to 50% seeded random extra.
func (s *Supervisor) jitter(d time.Duration) time.Duration {
	return d + time.Duration(s.rng.Int63n(int64(d)/2+1))
}

// beatTrack is the per-process accrual state: the last heartbeat ack and
// a sliding window of inter-ack gaps with running first and second
// moments, so the suspicion level φ(gap) is O(1) per evaluation.
type beatTrack struct {
	mu          sync.Mutex
	last        time.Time
	win         []float64 // seconds
	n, idx      int
	sum, sumSq  float64
	over        int         // consecutive over-threshold evaluations
	unreachable atomic.Bool // latched external unreachability report
}

// newBeatTrack primes the window with the probe interval so the
// distribution is defined before real samples arrive; the prior washes
// out of the sliding window as beats come in.
func newBeatTrack(now time.Time, interval time.Duration) *beatTrack {
	t := &beatTrack{last: now, win: make([]float64, beatWindow)}
	prior := interval.Seconds()
	for i := 0; i < 4; i++ {
		t.observe(prior)
	}
	return t
}

// beat records one heartbeat ack; it runs in the node goroutine and must
// stay cheap. A beat clears any building timeout suspicion.
func (t *beatTrack) beat(now time.Time, hist *obs.Histogram) {
	t.mu.Lock()
	gap := now.Sub(t.last).Seconds()
	if gap < 0 {
		gap = 0
	}
	t.last = now
	t.observe(gap)
	t.over = 0
	t.mu.Unlock()
	hist.Observe(gap)
}

// observe pushes one gap into the sliding window. Callers hold t.mu
// (construction excepted).
func (t *beatTrack) observe(gap float64) {
	if t.n < len(t.win) {
		t.n++
	} else {
		old := t.win[t.idx]
		t.sum -= old
		t.sumSq -= old * old
	}
	t.win[t.idx] = gap
	t.idx = (t.idx + 1) % len(t.win)
	t.sum += gap
	t.sumSq += gap * gap
}

// gapSince returns the time since the last ack.
func (t *beatTrack) gapSince(now time.Time) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return now.Sub(t.last)
}

// check evaluates the detector at one probe: suspicion requires the gap
// to clear the floor AND φ to clear the threshold on confirmTicks
// consecutive evaluations.
func (t *beatTrack) check(now time.Time, minGap time.Duration) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	gap := now.Sub(t.last)
	if gap < minGap || t.phiOf(gap.Seconds()) < phiThreshold {
		t.over = 0
		return false
	}
	t.over++
	return t.over >= confirmTicks
}

// phiOf is the suspicion level of a gap under the windowed distribution:
// -log10 of the normal upper-tail probability, with the deviation
// floored (a too-regular window must not make any hiccup look infinitely
// unlikely).
func (t *beatTrack) phiOf(gap float64) float64 {
	mean := t.sum / float64(t.n)
	variance := t.sumSq/float64(t.n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	sd := math.Sqrt(variance)
	if floor := mean / 4; sd < floor {
		sd = floor
	}
	const minSD = 100e-6 // scheduler-noise floor
	if sd < minSD {
		sd = minSD
	}
	p := 0.5 * math.Erfc((gap-mean)/(sd*math.Sqrt2))
	const minP = 1e-300 // Erfc underflows around z≈27
	if p < minP {
		p = minP
	}
	return -math.Log10(p)
}

// supInstruments is the supervisor's observability bundle; the obs
// primitives are nil-safe, so a cluster without a registry costs only
// the calls.
type supInstruments struct {
	reg          *obs.Registry
	tracer       *obs.Tracer
	heartbeatGap *obs.Histogram
}

// suspicion accounts for one confirmed suspicion. Suspicions are rare,
// so the labeled counter may take the registry lock here.
func (ins *supInstruments) suspicion(proc int, reason string, gap time.Duration) {
	ins.reg.Counter("rdt_supervisor_suspicions_total", "reason", reason).Inc()
	ins.tracer.Record(obs.Event{
		Type: obs.EventSuspicion, Proc: proc, Detail: reason,
		Value: int(gap.Microseconds()),
	})
}

// recovery accounts for one recovery attempt outcome: "ok" (a new
// incarnation is running), "retry" (the attempt failed), with
// "escalated" added by escalate when the budget is spent.
func (ins *supInstruments) recovery(outcome string) {
	ins.reg.Counter("rdt_supervisor_recoveries_total", "outcome", outcome).Inc()
}

// escalation accounts for one exhausted retry budget.
func (ins *supInstruments) escalation(err error) {
	ins.reg.Counter("rdt_supervisor_recoveries_total", "outcome", "escalated").Inc()
	detail := ""
	if err != nil {
		detail = err.Error()
	}
	ins.tracer.Record(obs.Event{Type: obs.EventEscalation, Detail: detail})
}
