package main

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"github.com/rdt-go/rdt/internal/cluster"
	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/obs"
	"github.com/rdt-go/rdt/internal/rgraph"
	"github.com/rdt-go/rdt/internal/storage"
	"github.com/rdt-go/rdt/internal/transport"
)

// runSupervised drives the cluster runtime under supervision: the same
// chaos stack as runChaos, plus a heartbeat failure detector and an
// autonomous recovery driver. A seeded victim is crashed mid-run; the
// run only proceeds once the supervisor has detected the failure and
// brought up incarnation 2 on its own, and the report covers both
// incarnations plus the supervisor's accounting.
func runSupervised(out io.Writer, kind core.Kind, n, rounds int, probs transport.FaultProbs, seed int64, check bool, reg *obs.Registry, tracer *obs.Tracer) error {
	if n < 2 {
		return fmt.Errorf("supervise: need at least 2 processes, have %d", n)
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	stack := func(transportSeed int64) transport.Transport {
		faulty := transport.WithFaults(transport.NewLocal(time.Millisecond), transport.FaultConfig{
			Seed:    transportSeed,
			Default: probs,
			Obs:     reg,
			Tracer:  tracer,
		})
		return transport.Reliable(faulty, transport.ReliableConfig{
			Seed:       transportSeed,
			MaxRetries: 100,
			Backoff:    time.Millisecond,
			MaxBackoff: 10 * time.Millisecond,
			Obs:        reg,
			Tracer:     tracer,
		})
	}

	c1, err := cluster.New(cluster.Config{
		N:           n,
		Protocol:    kind,
		Transport:   stack(seed),
		LogPayloads: true,
		Obs:         reg,
		Tracer:      tracer,
	})
	if err != nil {
		return err
	}
	recovered := make(chan *cluster.RecoverResult, 1)
	escalated := make(chan error, 1)
	sup, err := cluster.Supervise(c1, cluster.SupervisorConfig{
		Interval: 2 * time.Millisecond,
		Seed:     seed,
		Options: func(incarnation, attempt int) cluster.RecoverOptions {
			return cluster.RecoverOptions{
				Store:     storage.NewMemory(),
				Transport: stack(seed + 1000*int64(incarnation) + int64(attempt)),
			}
		},
		OnRecover:  func(res *cluster.RecoverResult) { recovered <- res },
		OnEscalate: func(err error) { escalated <- err },
	})
	if err != nil {
		return err
	}
	defer sup.Stop()

	traffic := func(c *cluster.Cluster, from, to int) (int, error) {
		sent := 0
		for round := from; round < to; round++ {
			for proc := 0; proc < n; proc++ {
				dest := (proc + 1 + round%(n-1)) % n
				payload := []byte{byte(round), byte(round >> 8), byte(proc), byte(dest)}
				if err := c.Node(proc).Send(dest, payload); err != nil {
					return sent, fmt.Errorf("supervise: send: %w", err)
				}
				sent++
			}
			if err := c.Node(round % n).Checkpoint(); err != nil {
				return sent, fmt.Errorf("supervise: checkpoint: %w", err)
			}
		}
		return sent, nil
	}

	half := rounds / 2
	sent1, err := traffic(c1, 0, half)
	if err != nil {
		return err
	}
	c1.Quiesce()

	// The injected failure: a seeded victim fail-stops, as an external
	// fault would kill it. Everything after this line is the supervisor's
	// doing — no manual Recover anywhere.
	victim := rand.New(rand.NewSource(seed)).Intn(n)
	if err := c1.Node(victim).Crash(); err != nil {
		return fmt.Errorf("supervise: inject crash: %w", err)
	}
	fmt.Fprintf(out, "supervised run: protocol=%v n=%d rounds=%d seed=%d\n", kind, n, rounds, seed)
	fmt.Fprintf(out, "faults: drop=%g dup=%g reorder=%g err=%g delay=%v\n",
		probs.Drop, probs.Duplicate, probs.Reorder, probs.SendError, probs.MaxExtraDelay)
	fmt.Fprintf(out, "injected crash     P%d after %d sends\n", victim, sent1)

	var res *cluster.RecoverResult
	select {
	case res = <-recovered:
	case err := <-escalated:
		return fmt.Errorf("supervise: escalated: %w", err)
	case <-time.After(time.Minute):
		return fmt.Errorf("supervise: no autonomous recovery within 1m")
	}
	c2 := sup.Cluster()
	fmt.Fprintf(out, "self-healed        incarnation %d up, %d messages replayed, rollback depth %d\n",
		sup.Incarnation(), len(res.Replayed), res.Plan.TotalRollback())

	sent2, err := traffic(c2, half, rounds)
	if err != nil {
		return err
	}
	c2.Quiesce()
	sup.Stop()
	pattern2, err := c2.Stop()
	if err != nil {
		return fmt.Errorf("supervise: stop: %w", err)
	}

	fmt.Fprintf(out, "messages sent      %8d (incarnation 1) + %d (incarnation 2)\n", sent1, sent2)
	fmt.Fprintf(out, "incarnation 2      %8d delivered (replay + fresh traffic)\n", len(pattern2.Messages))
	for _, reason := range []string{cluster.SuspectCrash, cluster.SuspectTimeout, cluster.SuspectUnreachable} {
		if v := reg.Counter("rdt_supervisor_suspicions_total", "reason", reason).Value(); v > 0 {
			fmt.Fprintf(out, "suspicions         %8d reason=%s\n", v, reason)
		}
	}
	fmt.Fprintf(out, "recoveries ok      %8d (retries: %d)\n",
		reg.Counter("rdt_supervisor_recoveries_total", "outcome", "ok").Value(),
		reg.Counter("rdt_supervisor_recoveries_total", "outcome", "retry").Value())

	if check {
		report, err := rgraph.CheckRDT(pattern2, 5)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "RDT property       %8v (%d/%d dependencies trackable)\n",
			report.RDT, report.TrackablePairs, report.RPathPairs)
		for _, v := range report.Violations {
			fmt.Fprintf(out, "  violation: %v\n", v)
		}
	}
	return nil
}
