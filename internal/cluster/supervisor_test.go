package cluster_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/rdt-go/rdt/internal/cluster"
	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/obs"
	"github.com/rdt-go/rdt/internal/rgraph"
	"github.com/rdt-go/rdt/internal/storage"
	"github.com/rdt-go/rdt/internal/transport"
	"github.com/rdt-go/rdt/internal/vtime"
)

// injectCrash is the fault injector of the supervised suite: it picks a
// seeded victim and fail-stops it, the way an external failure would.
// The test bodies never call Crash or Recover themselves — healing is
// the supervisor's job.
func injectCrash(t *testing.T, c *cluster.Cluster, seed int64) int {
	t.Helper()
	victim := rand.New(rand.NewSource(seed)).Intn(c.N())
	if err := c.Node(victim).Crash(); err != nil {
		t.Fatalf("inject crash of P%d: %v", victim, err)
	}
	return victim
}

// pump advances a virtual clock in fixed steps until cond holds. The
// supervisor's steps run inside each Advance, but over a real-clock
// transport nothing settles the node goroutines that ack its probes, so
// each step ends with a tiny real yield to let them run.
func pump(t *testing.T, v *vtime.Virtual, step time.Duration, cond func() bool, what string) {
	t.Helper()
	const maxSteps = 100000
	for i := 0; i < maxSteps; i++ {
		if cond() {
			return
		}
		v.Advance(step)
		time.Sleep(50 * time.Microsecond)
	}
	t.Fatalf("%s: not reached after %d virtual steps of %v", what, maxSteps, step)
}

// TestSupervisedChaosSelfHeals is the self-healing matrix: a supervised
// cluster over the full chaos stack loses a process to an injected
// crash; the supervisor must detect it from the heartbeat probes, drive
// the recovery autonomously, and hand back a live incarnation 2 whose
// pattern is again RDT — with zero manual Crash/Recover orchestration in
// the test body.
func TestSupervisedChaosSelfHeals(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			const n = 4
			reg := obs.NewRegistry()
			tracer := obs.NewTracer(4096)
			rel1, _ := chaosTransport(seed, chaosProbs, reg)
			app := newCounterApp(n)
			c1, err := cluster.New(cluster.Config{
				N:           n,
				Protocol:    core.KindBHMR,
				Transport:   rel1,
				Snapshot:    app.snapshot,
				Handler:     app.handler,
				LogPayloads: true,
				Obs:         reg,
				Tracer:      tracer,
			})
			if err != nil {
				t.Fatalf("new: %v", err)
			}

			recovered := make(chan *cluster.RecoverResult, 1)
			sup, err := cluster.Supervise(c1, cluster.SupervisorConfig{
				// The failure this test injects is a crash, detected via
				// ErrCrashed regardless of gap size; a probe interval of
				// 50ms puts the timeout floor (20 intervals) at 1s, which
				// keeps scheduler stalls on loaded CI runners from
				// triggering a spurious timeout failover of the healthy
				// second incarnation.
				Interval:     50 * time.Millisecond,
				Seed:         seed,
				DrainTimeout: 10 * time.Second,
				Options: func(incarnation, attempt int) cluster.RecoverOptions {
					rel, _ := chaosTransport(seed+1000*int64(incarnation)+int64(attempt), chaosProbs, reg)
					return cluster.RecoverOptions{
						Store:     storage.NewMemory(),
						Transport: rel,
						Install:   func(cp storage.Checkpoint) { app.install(cp.Proc, cp.State) },
					}
				},
				OnRecover: func(res *cluster.RecoverResult) { recovered <- res },
				OnEscalate: func(err error) {
					t.Errorf("unexpected escalation: %v", err)
				},
			})
			if err != nil {
				t.Fatalf("supervise: %v", err)
			}
			defer sup.Stop()

			// Incarnation 1 runs under chaos with checkpoints, then loses a
			// seeded victim mid-traffic: sends racing the crash may fail
			// with ErrCrashed/ErrStopped, which is exactly what an
			// application sees during a real failover.
			for round := 0; round < 3; round++ {
				for proc := 0; proc < n; proc++ {
					if err := c1.Node(proc).Send((proc+1)%n, []byte{byte(2*round + 1), byte(proc)}); err != nil {
						t.Fatalf("send: %v", err)
					}
				}
				if err := c1.Node(round % n).Checkpoint(); err != nil {
					t.Fatalf("checkpoint: %v", err)
				}
			}
			c1.Quiesce()
			victim := injectCrash(t, c1, seed)
			for proc := 0; proc < n; proc++ {
				if proc == victim {
					continue
				}
				// Best-effort traffic into the failover window.
				_ = c1.Node(proc).Send(victim, []byte{251, byte(proc)})
			}

			var res *cluster.RecoverResult
			select {
			case res = <-recovered:
			case <-time.After(30 * time.Second):
				t.Fatal("supervisor did not self-heal within 30s")
			}
			if got := sup.Incarnation(); got != 2 {
				t.Fatalf("incarnation = %d, want 2", got)
			}
			c2 := sup.Cluster()
			if c2 != res.Cluster || c2 == c1 {
				t.Fatal("supervisor did not adopt the recovered incarnation")
			}
			consistent, err := rgraph.IsConsistent(res.Pattern, res.Plan.Line)
			if err != nil {
				t.Fatalf("consistency: %v", err)
			}
			if !consistent {
				t.Fatalf("recovery line %v is not consistent", res.Plan.Line)
			}

			// Incarnation 2 is live and still supervised: drive fresh
			// traffic through it and verify its own pattern.
			const rounds2 = 2
			for round := 0; round < rounds2; round++ {
				for proc := 0; proc < n; proc++ {
					if err := c2.Node(proc).Send((proc+3)%n, []byte{byte(2*round + 7), 100 + byte(proc)}); err != nil {
						t.Fatalf("send in incarnation 2: %v", err)
					}
				}
			}
			c2.Quiesce()
			sup.Stop()
			pattern2, err := c2.Stop()
			if err != nil {
				t.Fatalf("stop incarnation 2: %v", err)
			}
			if got, want := len(pattern2.Messages), len(res.Replayed)+rounds2*n; got < want {
				t.Errorf("incarnation 2 delivered %d messages, want >= %d", got, want)
			}
			rep, err := rgraph.CheckRDT(pattern2, 2)
			if err != nil {
				t.Fatalf("check: %v", err)
			}
			if !rep.RDT {
				t.Fatalf("incarnation 2 violated RDT: %v", rep.Violations)
			}

			if got := reg.Counter("rdt_supervisor_suspicions_total", "reason", cluster.SuspectCrash).Value(); got < 1 {
				t.Errorf("crash suspicions = %d, want >= 1", got)
			}
			if got := reg.Counter("rdt_supervisor_recoveries_total", "outcome", "ok").Value(); got != 1 {
				t.Errorf("recoveries{ok} = %d, want 1", got)
			}
			var sawSuspicion bool
			for _, ev := range tracer.Tail(tracer.Len()) {
				if ev.Type == obs.EventSuspicion && ev.Proc == victim {
					sawSuspicion = true
				}
			}
			if !sawSuspicion {
				t.Errorf("trace has no suspicion event for victim P%d", victim)
			}
		})
	}
}

// TestSupervisorDetectsStalledNode: a process whose handler wedges keeps
// accepting probes but never acks them — only the accrual timeout can
// see that. The supervisor must suspect it, fail-stop it itself, and
// recover; nothing in this test calls Crash or Recover.
func TestSupervisorDetectsStalledNode(t *testing.T) {
	const n, victim = 3, 1
	v := vtime.NewVirtual(time.Time{})
	reg := obs.NewRegistry()
	release := make(chan struct{})
	var releaseOnce sync.Once
	app := newCounterApp(n)
	handler := func(node *cluster.Node, from int, payload []byte) {
		if node.Proc() == victim && len(payload) == 1 && payload[0] == 0xee {
			<-release // wedged: the node goroutine is stuck right here
		}
		app.handler(node, from, payload)
	}
	c1, err := cluster.New(cluster.Config{
		N:           n,
		Protocol:    core.KindBHMR,
		Snapshot:    app.snapshot,
		Handler:     handler,
		LogPayloads: true,
		Obs:         reg,
	})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	recovered := make(chan *cluster.RecoverResult, 1)
	sup, err := cluster.Supervise(c1, cluster.SupervisorConfig{
		Interval:     3 * time.Millisecond,
		DrainTimeout: 5 * time.Second,
		Clock:        v,
		OnRecover:    func(res *cluster.RecoverResult) { recovered <- res },
		OnEscalate:   func(err error) { t.Errorf("unexpected escalation: %v", err) },
	})
	if err != nil {
		t.Fatalf("supervise: %v", err)
	}
	defer sup.Stop()
	defer releaseOnce.Do(func() { close(release) })

	// Background traffic proves healthy nodes stay unsuspected while the
	// victim is wedged.
	if err := c1.Node(0).Send(2, []byte{1}); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := c1.Node(0).Send(victim, []byte{0xee}); err != nil {
		t.Fatalf("send stall marker: %v", err)
	}

	suspicions := reg.Counter("rdt_supervisor_suspicions_total", "reason", cluster.SuspectTimeout)
	pump(t, v, 3*time.Millisecond, func() bool { return suspicions.Value() >= 1 },
		"timeout suspicions")
	// The failover is now fail-stopping the victim, which waits for the
	// wedged handler to return: unwedge it so the crash can complete —
	// in-process fail-stop cannot reap a stuck goroutine.
	releaseOnce.Do(func() { close(release) })

	var healed bool
	pump(t, v, 3*time.Millisecond, func() bool {
		select {
		case <-recovered:
			healed = true
		default:
		}
		return healed
	}, "autonomous recovery from the stall")
	if got := sup.Incarnation(); got != 2 {
		t.Fatalf("incarnation = %d, want 2", got)
	}
	if got := reg.Counter("rdt_supervisor_recoveries_total", "outcome", "ok").Value(); got != 1 {
		t.Errorf("recoveries{ok} = %d, want 1", got)
	}
	sup.Stop()
	if _, err := sup.Cluster().Stop(); err != nil {
		t.Fatalf("stop incarnation 2: %v", err)
	}
}

// TestSupervisorNoFalsePositivesUnderDelay: heavy injected delay and
// reordering slow the messages, not the event loops — the adaptive
// detector must not suspect anyone, and every message still arrives
// exactly once.
func TestSupervisorNoFalsePositivesUnderDelay(t *testing.T) {
	const n = 3
	v := vtime.NewVirtual(time.Time{})
	reg := obs.NewRegistry()
	local := transport.NewLocalWith(transport.LocalConfig{MaxDelay: time.Millisecond, Seed: 7, Clock: v})
	faulty := transport.WithFaults(local, transport.FaultConfig{
		Seed:    7,
		Default: transport.FaultProbs{Reorder: 0.8, MaxExtraDelay: 15 * time.Millisecond},
		Clock:   v,
	})
	counts := newDeliveryCount()
	c, err := cluster.New(cluster.Config{
		N:           n,
		Protocol:    core.KindBHMR,
		Transport:   faulty,
		Handler:     counts.handler,
		LogPayloads: true,
		Obs:         reg,
	})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	sup, err := cluster.Supervise(c, cluster.SupervisorConfig{
		Interval: 3 * time.Millisecond,
		Clock:    v,
		OnRecover: func(*cluster.RecoverResult) {
			t.Error("unexpected autonomous recovery of a healthy cluster")
		},
		OnEscalate: func(err error) { t.Errorf("unexpected escalation: %v", err) },
	})
	if err != nil {
		t.Fatalf("supervise: %v", err)
	}
	defer sup.Stop()

	want := make(map[string]bool)
	for round := 0; round < 20; round++ {
		for proc := 0; proc < n; proc++ {
			payload := []byte{byte(2*round + 1), byte(proc)}
			if err := c.Node(proc).Send((proc+1)%n, payload); err != nil {
				t.Fatalf("send: %v", err)
			}
			want[string(payload)] = true
		}
		// Several probes per round, with the cluster settled between
		// any two firings: the delayed frames and the probes share the
		// virtual clock.
		v.AdvanceUntilIdle(10*time.Millisecond, c.Settle)
	}
	v.AdvanceUntilIdle(100*time.Millisecond, c.Settle)
	c.Quiesce()
	sup.Stop()

	for _, reason := range []string{cluster.SuspectCrash, cluster.SuspectTimeout, cluster.SuspectUnreachable} {
		if got := reg.Counter("rdt_supervisor_suspicions_total", "reason", reason).Value(); got != 0 {
			t.Errorf("suspicions{%s} = %d under delay-only faults, want 0", reason, got)
		}
	}
	if got := sup.Incarnation(); got != 1 {
		t.Errorf("incarnation = %d, want 1 (no failover)", got)
	}
	counts.assertExactlyOnce(t, want)
	if _, err := c.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
}

// TestSupervisorStopMidFailover: a Stop that cuts a failover short while
// the old incarnation drains must tear that incarnation down itself —
// after beginStop nobody else can.
func TestSupervisorStopMidFailover(t *testing.T) {
	v := vtime.NewVirtual(time.Time{})
	local := transport.NewLocalWith(transport.LocalConfig{Clock: v})
	release := make(chan struct{})
	c, err := cluster.New(cluster.Config{
		N:         2,
		Protocol:  core.KindBHMR,
		Transport: local,
		Handler: func(node *cluster.Node, from int, payload []byte) {
			<-release // P0 wedges on its delivery, so the drain cannot end
		},
		LogPayloads: true,
	})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	sup, err := cluster.Supervise(c, cluster.SupervisorConfig{
		Interval:     10 * time.Millisecond,
		DrainTimeout: time.Second,
		Clock:        v,
		OnRecover:    func(*cluster.RecoverResult) { t.Error("recovery after Stop") },
	})
	if err != nil {
		t.Fatalf("supervise: %v", err)
	}
	if err := c.Node(1).Send(0, []byte{1}); err != nil {
		t.Fatalf("send: %v", err)
	}
	if _, err := c.Node(1).Status(); err != nil { // the frame is on the clock
		t.Fatalf("status: %v", err)
	}
	v.Advance(time.Millisecond) // delivered: P0 is wedged
	if err := c.Node(1).Crash(); err != nil {
		t.Fatalf("crash: %v", err)
	}
	v.Advance(10 * time.Millisecond) // probe: P1 suspected and fail-stopped
	v.Advance(10 * time.Millisecond) // the old incarnation begins stopping
	if err := c.Node(0).Checkpoint(); !errors.Is(err, cluster.ErrStopped) {
		t.Fatalf("checkpoint during the drain: err = %v, want ErrStopped", err)
	}
	close(release)
	sup.Stop()
	if err := local.Send(transport.Frame{From: 1, To: 0}); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("transport after Stop: err = %v, want ErrClosed", err)
	}
	if v.Pending() != 0 {
		t.Fatalf("%d timers pending after Stop", v.Pending())
	}
	if got := sup.Incarnation(); got != 1 {
		t.Fatalf("incarnation = %d, want 1", got)
	}
}

// TestSupervisorRetriesThenRecovers: the first recovery attempt fails
// (its transport is already closed), the second succeeds — the backoff
// loop must absorb the failure and still heal.
func TestSupervisorRetriesThenRecovers(t *testing.T) {
	const n = 2
	reg := obs.NewRegistry()
	app := newCounterApp(n)
	c1, err := cluster.New(cluster.Config{
		N:           n,
		Protocol:    core.KindBHMR,
		Snapshot:    app.snapshot,
		Handler:     app.handler,
		LogPayloads: true,
		Obs:         reg,
	})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	var mu sync.Mutex
	var attempts []int
	recovered := make(chan *cluster.RecoverResult, 1)
	sup, err := cluster.Supervise(c1, cluster.SupervisorConfig{
		Interval: 2 * time.Millisecond,
		Options: func(incarnation, attempt int) cluster.RecoverOptions {
			mu.Lock()
			attempts = append(attempts, attempt)
			mu.Unlock()
			if attempt == 1 {
				broken := transport.NewLocal(0)
				broken.Close()
				return cluster.RecoverOptions{Transport: broken}
			}
			return cluster.RecoverOptions{Store: storage.NewMemory()}
		},
		OnRecover:  func(res *cluster.RecoverResult) { recovered <- res },
		OnEscalate: func(err error) { t.Errorf("unexpected escalation: %v", err) },
	})
	if err != nil {
		t.Fatalf("supervise: %v", err)
	}
	defer sup.Stop()

	if err := c1.Node(0).Send(1, []byte{1}); err != nil {
		t.Fatalf("send: %v", err)
	}
	c1.Quiesce()
	injectCrash(t, c1, 11)

	select {
	case <-recovered:
	case <-time.After(30 * time.Second):
		t.Fatal("supervisor did not recover within 30s")
	}
	mu.Lock()
	gotAttempts := append([]int(nil), attempts...)
	mu.Unlock()
	if len(gotAttempts) != 2 || gotAttempts[0] != 1 || gotAttempts[1] != 2 {
		t.Errorf("attempts = %v, want [1 2]", gotAttempts)
	}
	if got := reg.Counter("rdt_supervisor_recoveries_total", "outcome", "retry").Value(); got != 1 {
		t.Errorf("recoveries{retry} = %d, want 1", got)
	}
	if got := reg.Counter("rdt_supervisor_recoveries_total", "outcome", "ok").Value(); got != 1 {
		t.Errorf("recoveries{ok} = %d, want 1", got)
	}
	sup.Stop()
	if _, err := sup.Cluster().Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
}

// TestSupervisorEscalates: when every attempt fails, the supervisor must
// burn exactly its MaxRecoveryAttempts, escalate with the last error,
// and stop.
func TestSupervisorEscalates(t *testing.T) {
	const n = 2
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(256)
	app := newCounterApp(n)
	c1, err := cluster.New(cluster.Config{
		N:           n,
		Protocol:    core.KindBHMR,
		Snapshot:    app.snapshot,
		Handler:     app.handler,
		LogPayloads: true,
		Obs:         reg,
		Tracer:      tracer,
	})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	escalated := make(chan error, 1)
	sup, err := cluster.Supervise(c1, cluster.SupervisorConfig{
		Interval: 2 * time.Millisecond,
		Options: func(incarnation, attempt int) cluster.RecoverOptions {
			broken := transport.NewLocal(0)
			broken.Close()
			return cluster.RecoverOptions{Transport: broken}
		},
		OnRecover:  func(*cluster.RecoverResult) { t.Error("unexpected recovery from broken options") },
		OnEscalate: func(err error) { escalated <- err },
	})
	if err != nil {
		t.Fatalf("supervise: %v", err)
	}
	defer sup.Stop()

	injectCrash(t, c1, 13)

	var lastErr error
	select {
	case lastErr = <-escalated:
	case <-time.After(30 * time.Second):
		t.Fatal("supervisor did not escalate within 30s")
	}
	if lastErr == nil {
		t.Error("escalation carried a nil error")
	}
	select {
	case <-sup.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("supervisor did not stop after escalating")
	}
	if got := reg.Counter("rdt_supervisor_recoveries_total", "outcome", "retry").Value(); got != cluster.MaxRecoveryAttempts {
		t.Errorf("recoveries{retry} = %d, want %d", got, cluster.MaxRecoveryAttempts)
	}
	if got := reg.Counter("rdt_supervisor_recoveries_total", "outcome", "escalated").Value(); got != 1 {
		t.Errorf("recoveries{escalated} = %d, want 1", got)
	}
	var sawEscalation bool
	for _, ev := range tracer.Tail(tracer.Len()) {
		if ev.Type == obs.EventEscalation {
			sawEscalation = true
		}
	}
	if !sawEscalation {
		t.Error("trace has no escalation event")
	}
	if got := sup.Incarnation(); got != 1 {
		t.Errorf("incarnation = %d after escalation, want 1", got)
	}
}

// TestSuperviseValidation: the entry conditions.
func TestSuperviseValidation(t *testing.T) {
	if _, err := cluster.Supervise(nil, cluster.SupervisorConfig{}); err == nil {
		t.Error("supervising a nil cluster should fail")
	}
	noLog, err := cluster.New(cluster.Config{N: 2, Protocol: core.KindBHMR})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	if _, err := cluster.Supervise(noLog, cluster.SupervisorConfig{}); err == nil {
		t.Error("supervising without LogPayloads should fail")
	}
	if _, err := noLog.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if _, err := cluster.Supervise(noLog, cluster.SupervisorConfig{}); err == nil {
		t.Error("supervising a stopped cluster should fail")
	}
}

// TestSupervisorExternalStop: when the owner shuts the cluster down, the
// supervisor notices on its next probe and exits instead of "recovering"
// a deliberate shutdown.
func TestSupervisorExternalStop(t *testing.T) {
	c, err := cluster.New(cluster.Config{N: 2, Protocol: core.KindBHMR, LogPayloads: true})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	sup, err := cluster.Supervise(c, cluster.SupervisorConfig{
		Interval:   2 * time.Millisecond,
		OnRecover:  func(*cluster.RecoverResult) { t.Error("recovery after external stop") },
		OnEscalate: func(err error) { t.Errorf("escalation after external stop: %v", err) },
	})
	if err != nil {
		t.Fatalf("supervise: %v", err)
	}
	if _, err := c.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	select {
	case <-sup.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("supervisor did not exit after the cluster was stopped")
	}
	sup.Stop() // idempotent after the monitor already exited
}
