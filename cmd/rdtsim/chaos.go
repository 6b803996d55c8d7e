package main

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/rdt-go/rdt/internal/cluster"
	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/obs"
	"github.com/rdt-go/rdt/internal/rgraph"
	"github.com/rdt-go/rdt/internal/transport"
)

// parseFaults turns a "-faults" spec like
//
//	drop=0.05,dup=0.05,reorder=0.1,err=0.02,delay=3ms
//
// into a fault mix. Keys may appear in any order; omitted ones are zero.
func parseFaults(spec string) (transport.FaultProbs, error) {
	var p transport.FaultProbs
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return p, fmt.Errorf("faults: %q is not key=value", field)
		}
		if key == "delay" {
			d, err := time.ParseDuration(val)
			if err != nil {
				return p, fmt.Errorf("faults: delay: %w", err)
			}
			p.MaxExtraDelay = d
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return p, fmt.Errorf("faults: %s: %w", key, err)
		}
		if f < 0 || f > 1 {
			return p, fmt.Errorf("faults: %s=%g outside [0,1]", key, f)
		}
		switch key {
		case "drop":
			p.Drop = f
		case "dup":
			p.Duplicate = f
		case "reorder":
			p.Reorder = f
		case "err":
			p.SendError = f
		default:
			return p, fmt.Errorf("faults: unknown key %q (want drop, dup, reorder, err, delay)", key)
		}
	}
	return p, nil
}

// runChaos executes the concurrent cluster runtime (not the discrete-event
// simulator) over a fault-injected transport with the reliable delivery
// layer on top, and reports delivery accounting, injected faults, retry
// work, and the RDT verdict of the recorded pattern.
func runChaos(out io.Writer, kind core.Kind, n, rounds int, probs transport.FaultProbs, seed int64, check bool, reg *obs.Registry, tracer *obs.Tracer) error {
	if n < 2 {
		return fmt.Errorf("chaos: need at least 2 processes, have %d", n)
	}
	if reg == nil {
		reg = obs.NewRegistry() // accounting below needs the counters
	}
	faulty := transport.WithFaults(transport.NewLocal(time.Millisecond), transport.FaultConfig{
		Seed:    seed,
		Default: probs,
		Obs:     reg,
		Tracer:  tracer,
	})
	rel := transport.Reliable(faulty, transport.ReliableConfig{
		Seed:       seed,
		MaxRetries: 100,
		Backoff:    time.Millisecond,
		MaxBackoff: 10 * time.Millisecond,
		Obs:        reg,
		Tracer:     tracer,
	})

	var mu sync.Mutex
	delivered := make(map[string]int)
	c, err := cluster.New(cluster.Config{
		N:         n,
		Protocol:  kind,
		Transport: rel,
		Obs:       reg,
		Tracer:    tracer,
		Handler: func(_ *cluster.Node, _ int, payload []byte) {
			mu.Lock()
			delivered[string(payload)]++
			mu.Unlock()
		},
	})
	if err != nil {
		return err
	}

	sent := 0
	for round := 0; round < rounds; round++ {
		for proc := 0; proc < n; proc++ {
			for _, to := range []int{(proc + 1) % n, (proc + 2) % n} {
				if to == proc {
					continue
				}
				payload := []byte{byte(round), byte(round >> 8), byte(proc), byte(to)}
				if err := c.Node(proc).Send(to, payload); err != nil {
					return fmt.Errorf("chaos: send: %w", err)
				}
				sent++
			}
		}
		if err := c.Node(round % n).Checkpoint(); err != nil {
			return fmt.Errorf("chaos: checkpoint: %w", err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	quiesceErr := c.QuiesceCtx(ctx)
	pattern, lost, err := c.StopLossy(context.Background())
	if err != nil {
		return fmt.Errorf("chaos: stop: %w", err)
	}

	mu.Lock()
	exactlyOnce := len(lost) == 0
	duplicates := 0
	for _, count := range delivered {
		if count != 1 {
			exactlyOnce = false
			if count > 1 {
				duplicates += count - 1
			}
		}
	}
	distinct := len(delivered)
	mu.Unlock()

	fmt.Fprintf(out, "chaos run: protocol=%v n=%d rounds=%d seed=%d\n", kind, n, rounds, seed)
	fmt.Fprintf(out, "faults: drop=%g dup=%g reorder=%g err=%g delay=%v\n",
		probs.Drop, probs.Duplicate, probs.Reorder, probs.SendError, probs.MaxExtraDelay)
	fmt.Fprintf(out, "messages sent      %8d\n", sent)
	fmt.Fprintf(out, "distinct delivered %8d (duplicate deliveries: %d, lost: %d)\n", distinct, duplicates, len(lost))
	for kind, count := range faulty.Injected() {
		fmt.Fprintf(out, "injected %-10s%8d\n", kind, count)
	}
	fmt.Fprintf(out, "send retries       %8d\n", reg.Counter("rdt_send_retries_total").Value())
	fmt.Fprintf(out, "give-ups           %8d\n", reg.Counter("rdt_reliable_giveups_total").Value())
	if quiesceErr != nil {
		fmt.Fprintf(out, "quiesce            timed out: %v\n", quiesceErr)
	}
	if exactlyOnce {
		fmt.Fprintf(out, "delivery           exactly-once: every message delivered once\n")
	} else {
		fmt.Fprintf(out, "delivery           DEGRADED: loss or duplication observed\n")
	}

	if check {
		report, err := rgraph.CheckRDT(pattern, 5)
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
