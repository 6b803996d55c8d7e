// Command rdtsim runs one simulation of a communication-induced
// checkpointing protocol in a chosen communication environment and
// reports the checkpointing overhead. It can also write the recorded
// checkpoint and communication pattern as JSON for offline analysis with
// rdtcheck.
//
// Usage:
//
//	rdtsim -protocol bhmr -workload client-server -n 8 -duration 1000 \
//	       -basic 10 -seed 1 -trace out.json
//
// -trace-out additionally writes the run's causal timeline as Chrome
// trace-event JSON, loadable in chrome://tracing or Perfetto:
//
//	rdtsim -protocol bhmr -n 4 -trace-out timeline.json
//
// With -scenario, rdtsim instead executes a .rdts chaos-scenario file —
// a scripted schedule of traffic, partitions, disconnects, crashes, and
// recoveries at virtual timestamps — on the concurrent cluster runtime,
// deterministically under a virtual clock, and fails if any of the
// file's expectations are violated:
//
//	rdtsim -scenario ring-under-drops.rdts -transcript
//
// -faults and -supervise generate such a scenario from the flags: rounds
// of sends and checkpoints over a fault-injected transport with reliable
// delivery on top, and with -supervise a heartbeat failure detector that
// must detect a seeded victim's mid-run crash and recover it on its own:
//
//	rdtsim -protocol bhmr -n 4 -rounds 20 -seed 7 \
//	       -faults drop=0.1,dup=0.1,reorder=0.15,err=0.05,delay=2ms
//	rdtsim -protocol bhmr -n 4 -rounds 20 -seed 7 -supervise \
//	       -faults drop=0.1,dup=0.1,reorder=0.15,err=0.05,delay=2ms
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/obs"
	"github.com/rdt-go/rdt/internal/rgraph"
	"github.com/rdt-go/rdt/internal/scenario"
	"github.com/rdt-go/rdt/internal/sim"
	"github.com/rdt-go/rdt/internal/stats"
	"github.com/rdt-go/rdt/internal/trace"
	"github.com/rdt-go/rdt/internal/version"
	"github.com/rdt-go/rdt/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rdtsim:", err)
		os.Exit(1)
	}
}

// metricsServed is a test seam: it runs after all output is printed and
// before the observability server shuts down, with the server's address.
var metricsServed = func(addr string) {}

// protocolNames lists every protocol's name, least conservative first.
func protocolNames() string {
	var names []string
	for _, k := range core.Kinds() {
		names = append(names, k.String())
	}
	return strings.Join(names, ", ")
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rdtsim", flag.ContinueOnError)
	var (
		protocol    = fs.String("protocol", "bhmr", "checkpointing protocol ('all' for a comparison): "+protocolNames())
		env         = fs.String("workload", "random", "communication environment: "+strings.Join(workload.Names(), ", "))
		n           = fs.Int("n", 8, "number of processes")
		duration    = fs.Float64("duration", 1000, "simulated time horizon")
		basic       = fs.Float64("basic", 10, "mean interval between basic checkpoints")
		seed        = fs.Int64("seed", 1, "random seed")
		seeds       = fs.Int("seeds", 1, "number of replications (seed, seed+1, ...); with more than one, report mean and 95% CI of R")
		tracePath   = fs.String("trace", "", "write the recorded pattern to this JSON file")
		check       = fs.Bool("check", true, "verify the RDT property of the recorded pattern")
		metricsAddr = fs.String("metrics-addr", "", "serve Prometheus /metrics, /debug/events, and /debug/vars on this address (:0 picks a port)")
		events      = fs.Int("events", 0, "print the last N structured events after the run")
		faults      = fs.String("faults", "", "run the cluster runtime for -rounds under this fault mix, e.g. drop=0.05,dup=0.05,reorder=0.1,err=0.02,delay=3ms")
		rounds      = fs.Int("rounds", 10, "send rounds of -faults and -supervise")
		supervise   = fs.Bool("supervise", false, "run the cluster runtime under a supervisor: a seeded crash is injected mid-run and must be detected and healed autonomously (combines with -faults)")
		traceOut    = fs.String("trace-out", "", "write the run's causal timeline as Chrome trace-event JSON to this file (open in chrome://tracing or Perfetto)")
		pprof       = fs.Bool("pprof", false, "also mount /debug/pprof and runtime gauges on the -metrics-addr server")
		scenarioIn  = fs.String("scenario", "", "execute a .rdts chaos scenario file deterministically under a virtual clock and check its expectations")
		transcript  = fs.Bool("transcript", false, "print the cluster run's deterministic transcript (-scenario, -faults, -supervise)")
		showVersion = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		fmt.Fprintf(out, "rdtsim %s\n", version.String())
		return nil
	}
	// -scenario, -faults and -supervise run the cluster runtime through
	// one scenario; the flags alone pick a simulation.
	var sc *scenario.Scenario
	switch {
	case *scenarioIn != "":
		var err error
		if sc, err = scenario.ParseFile(*scenarioIn); err != nil {
			return err
		}
	case *faults != "" || *supervise:
		if *protocol == "all" {
			return fmt.Errorf("-faults and -supervise run one protocol at a time")
		}
		kind, err := core.ParseKind(*protocol)
		if err != nil {
			return err
		}
		if sc, err = scenario.Chaos(*n, kind, *seed, *rounds, *faults, *supervise, *check); err != nil {
			return err
		}
	case *transcript:
		return fmt.Errorf("-transcript needs a cluster run: -scenario, -faults or -supervise")
	case *traceOut != "" && (*protocol == "all" || *seeds > 1):
		return fmt.Errorf("-trace-out needs the single recorded pattern of one run")
	}

	var (
		reg    *obs.Registry
		tracer *obs.Tracer
	)
	if *metricsAddr != "" || *events > 0 {
		reg = obs.NewRegistry()
		tracer = obs.NewTracer(obs.DefaultTracerCapacity)
	}
	if *metricsAddr != "" {
		srv, err := obs.Serve(*metricsAddr, reg, tracer, *pprof)
		if err != nil {
			return err
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
		}()
		fmt.Fprintf(out, "metrics: http://%s/metrics events: http://%s/debug/events\n", srv.Addr(), srv.Addr())
		defer func() { metricsServed(srv.Addr()) }()
	}
	defer printEvents(out, tracer, *events)

	if sc != nil {
		res, err := scenario.Run(sc, reg, tracer)
		if err != nil {
			return err
		}
		failed := reportScenario(out, sc, res, *transcript)
		if err := writePattern(out, res.Pattern, *tracePath, *traceOut); err != nil {
			return err
		}
		return failed
	}
	if *protocol == "all" {
		return compareAll(out, *env, *n, *duration, *basic, *seed, reg, tracer)
	}
	kind, err := core.ParseKind(*protocol)
	if err != nil {
		return err
	}
	w, err := workload.ByName(*env)
	if err != nil {
		return err
	}
	cfg := sim.DefaultConfig(kind, *seed)
	cfg.N = *n
	cfg.Duration = *duration
	cfg.BasicMean = *basic
	cfg.Obs = reg
	cfg.Tracer = tracer

	if *seeds > 1 {
		return replicate(out, cfg, *env, *seeds)
	}

	res, err := sim.Run(cfg, w)
	if err != nil {
		return err
	}
	s := res.Stats
	fmt.Fprintf(out, "protocol=%v workload=%s n=%d duration=%g seed=%d\n", kind, *env, *n, *duration, *seed)
	fmt.Fprintf(out, "messages           %8d\n", s.Messages)
	fmt.Fprintf(out, "basic checkpoints  %8d\n", s.Basic)
	fmt.Fprintf(out, "forced checkpoints %8d\n", s.Forced)
	fmt.Fprintf(out, "R = forced/basic   %8.4f\n", s.ForcedPerBasic())
	fmt.Fprintf(out, "forced/message     %8.4f\n", s.ForcedPerMessage())
	fmt.Fprintf(out, "piggyback          %8d bytes/message\n", res.WireBytesPerMessage)

	if *check {
		report, err := rgraph.CheckRDT(res.Pattern, 5)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "RDT property       %8v (%d/%d dependencies trackable)\n",
			report.RDT, report.TrackablePairs, report.RPathPairs)
		for _, v := range report.Violations {
			fmt.Fprintf(out, "  violation: %v\n", v)
		}
	}

	return writePattern(out, res.Pattern, *tracePath, *traceOut)
}

// reportScenario prints a cluster run's outcome; the error lists the
// violated expectations.
func reportScenario(out io.Writer, sc *scenario.Scenario, res *scenario.Result, transcript bool) error {
	if transcript {
		fmt.Fprint(out, res.Transcript)
	}
	fmt.Fprintf(out, "scenario=%s verdict=%s sent=%d delivered=%d lost=%d sim=%v\n",
		res.Name, res.Verdict, res.Sent, res.Delivered, res.Lost, res.SimTime)
	// A failover replays messages into the next incarnation, so only an
	// unsupervised run's counts can show exactly-once delivery.
	if !sc.Supervise {
		if res.Delivered == res.Sent && res.Lost == 0 {
			fmt.Fprintln(out, "delivery exactly-once: every message sent was delivered once")
		} else {
			fmt.Fprintln(out, "delivery not exactly-once: loss, duplication or a recovery's replay")
		}
	}
	if len(res.Recovered) > 0 {
		fmt.Fprintf(out, "recovered=%v\n", res.Recovered)
	}
	if res.Line != nil {
		fmt.Fprintf(out, "recovery line=%v\n", res.Line)
	}
	if !res.Passed() {
		for _, f := range res.Failures {
			fmt.Fprintf(out, "expectation failed: %s\n", f)
		}
		return fmt.Errorf("scenario %s: %d expectation(s) failed", res.Name, len(res.Failures))
	}
	fmt.Fprintln(out, "all expectations held")
	return nil
}

// writePattern writes the recorded pattern as trace JSON (-trace) and
// its causal timeline as Chrome trace-event JSON (-trace-out); an empty
// path skips that file.
func writePattern(out io.Writer, p *model.Pattern, tracePath, timelinePath string) error {
	if tracePath != "" {
		if err := trace.SaveFile(tracePath, p); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace written to %s\n", tracePath)
	}
	if timelinePath != "" {
		if err := writeTimelineFile(timelinePath, p); err != nil {
			return err
		}
		fmt.Fprintf(out, "timeline written to %s\n", timelinePath)
	}
	return nil
}

// writeTimelineFile renders the pattern's logical causal timeline as
// Chrome trace-event JSON.
func writeTimelineFile(path string, p *model.Pattern) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteTimeline(f, p); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printEvents writes the tail of the structured event trace, oldest
// first. A nil tracer or n <= 0 prints nothing.
func printEvents(out io.Writer, tracer *obs.Tracer, n int) {
	if tracer == nil || n <= 0 {
		return
	}
	tail := tracer.Tail(n)
	fmt.Fprintf(out, "events (last %d of %d recorded):\n", len(tail), tracer.Seq())
	for _, ev := range tail {
		fmt.Fprintf(out, "  #%-8d %-17s proc=%d", ev.Seq, ev.Type, ev.Proc)
		if ev.Type == obs.EventSend || ev.Type == obs.EventDeliver || ev.Type == obs.EventSendError {
			fmt.Fprintf(out, " peer=%d", ev.Peer)
		}
		if ev.Predicate != "" {
			fmt.Fprintf(out, " predicate=%s", ev.Predicate)
		}
		if ev.Detail != "" {
			fmt.Fprintf(out, " detail=%q", ev.Detail)
		}
		fmt.Fprintf(out, " value=%d\n", ev.Value)
	}
}

// replicate runs the configuration over consecutive seeds and reports the
// sampling distribution of the overhead ratio. It reads only checkpoint
// counts, so its replays build no pattern.
func replicate(out io.Writer, cfg sim.Config, env string, seeds int) error {
	var rs, fpm stats.Sample
	for k := 0; k < seeds; k++ {
		w, err := workload.ByName(env)
		if err != nil {
			return err
		}
		run := cfg
		run.Seed = cfg.Seed + int64(k)
		s, err := sim.Record(run, w)
		if err != nil {
			return err
		}
		st, err := s.Count(run.Protocol, run.Monitor)
		s.Release()
		if err != nil {
			return err
		}
		rs = append(rs, st.ForcedPerBasic())
		fpm = append(fpm, st.ForcedPerMessage())
	}
	fmt.Fprintf(out, "protocol=%v workload=%s n=%d duration=%g seeds=%d..%d\n",
		cfg.Protocol, env, cfg.N, cfg.Duration, cfg.Seed, cfg.Seed+int64(seeds)-1)
	fmt.Fprintf(out, "R = forced/basic   %8.4f ± %.4f (95%% CI), min %.4f max %.4f\n",
		rs.Mean(), rs.CI95(), rs.Min(), rs.Max())
	fmt.Fprintf(out, "forced/message     %8.4f ± %.4f (95%% CI)\n", fpm.Mean(), fpm.CI95())
	return nil
}

// compareAll runs every protocol on the same workload and seed and prints
// a comparison table. The schedule is recorded once and every protocol
// replays it. All replays share the registry and tracer (may be nil),
// with series distinguished by their protocol label.
func compareAll(out io.Writer, env string, n int, duration, basic float64, seed int64, reg *obs.Registry, tracer *obs.Tracer) error {
	fmt.Fprintf(out, "workload=%s n=%d duration=%g basic=%g seed=%d\n", env, n, duration, basic, seed)
	fmt.Fprintf(out, "%-8s %9s %9s %9s %9s %10s %6s\n",
		"protocol", "messages", "basic", "forced", "R=f/b", "piggyback", "RDT")
	w, err := workload.ByName(env)
	if err != nil {
		return err
	}
	kinds := core.Kinds()
	cfg := sim.DefaultConfig(kinds[0], seed)
	cfg.N = n
	cfg.Duration = duration
	cfg.BasicMean = basic
	cfg.Obs = reg
	cfg.Tracer = tracer
	s, err := sim.Record(cfg, w)
	if err != nil {
		return err
	}
	for _, kind := range kinds {
		res, err := s.Run(kind, nil)
		if err != nil {
			return err
		}
		report, err := rgraph.CheckRDT(res.Pattern, 0)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%-8v %9d %9d %9d %9.3f %10d %6v\n",
			kind, res.Stats.Messages, res.Stats.Basic, res.Stats.Forced,
			res.Stats.ForcedPerBasic(), res.WireBytesPerMessage, report.RDT)
	}
	return nil
}
