// Command rdtcheck analyzes a recorded checkpoint and communication
// pattern (JSON, as written by rdtsim or the runtime): it verifies the
// RDT property, cross-checks recorded dependency vectors, and can compute
// minimum/maximum consistent global checkpoints and recovery lines.
//
// Usage:
//
//	rdtcheck trace.json
//	rdtcheck -min 2,5 -max 2,5 trace.json
//	rdtcheck -line 3,4,2,5 trace.json
//	rdtcheck -dot trace.json > pattern.dot
//	rdtcheck -explain trace.json           # minimal witness per violation
//	rdtcheck -explain -dot trace.json      # diagram with the witness in red
//	rdtcheck -figure1         # analyze the paper's Figure 1 fixture
//	rdtcheck - < trace.json   # read the trace from stdin
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/obs"
	"github.com/rdt-go/rdt/internal/rgraph"
	"github.com/rdt-go/rdt/internal/trace"
	"github.com/rdt-go/rdt/internal/version"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rdtcheck:", err)
		os.Exit(1)
	}
}

// metricsServed is a test seam: it runs after all output is printed and
// before the observability server shuts down, with the server's address.
var metricsServed = func(addr string) {}

// stdin is where the "-" trace argument reads from; swapped in tests.
var stdin io.Reader = os.Stdin

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rdtcheck", flag.ContinueOnError)
	var (
		minAt       = fs.String("min", "", "compute the minimum consistent global checkpoint containing proc,index")
		maxAt       = fs.String("max", "", "compute the maximum consistent global checkpoint containing proc,index")
		lineAt      = fs.String("line", "", "compute the recovery line below the comma-separated per-process bounds")
		dot         = fs.Bool("dot", false, "emit the pattern as Graphviz DOT instead of analyzing it")
		rdot        = fs.Bool("rdot", false, "emit the rollback-dependency graph as Graphviz DOT instead of analyzing it")
		ascii       = fs.Bool("ascii", false, "also print the pattern as an ASCII space-time diagram")
		useless     = fs.Bool("useless", false, "also list useless checkpoints (those on a zigzag cycle, read off the R-graph)")
		fig1        = fs.Bool("figure1", false, "analyze the built-in Figure 1 fixture instead of a file")
		maxViol     = fs.Int("violations", 10, "maximum RDT violations to list")
		metricsAddr = fs.String("metrics-addr", "", "serve Prometheus /metrics, /debug/events, and /debug/vars for the analyzed pattern on this address (:0 picks a port)")
		events      = fs.Int("events", 0, "print the last N replayed events after the analysis")
		explain     = fs.Bool("explain", false, "derive a minimal witness chain for every RDT violation (with -dot, highlight the first witness in the diagram)")
		pprof       = fs.Bool("pprof", false, "also mount /debug/pprof and runtime gauges on the -metrics-addr server")
		showVersion = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		fmt.Fprintf(out, "rdtcheck %s\n", version.String())
		return nil
	}

	var (
		p   *model.Pattern
		err error
	)
	switch {
	case *fig1:
		p, err = trace.Figure1()
	case fs.NArg() == 1 && fs.Arg(0) == "-":
		p, err = trace.Load(stdin)
	case fs.NArg() == 1:
		p, err = trace.LoadFile(fs.Arg(0))
	default:
		return fmt.Errorf("expected exactly one trace file, \"-\" for stdin, or -figure1; got %d args", fs.NArg())
	}
	if err != nil {
		return err
	}

	if *dot {
		if *explain {
			// Highlight the first violation's witness chain in the diagram;
			// a trackable pattern degrades to the plain diagram.
			_, witnesses, err := rgraph.Explain(p, *maxViol)
			if err != nil {
				return err
			}
			if len(witnesses) > 0 {
				w := witnesses[0]
				fmt.Fprint(out, p.DOTWitness(w.MessageIDs(), w.Violation.From, w.Violation.To))
				return nil
			}
		}
		fmt.Fprint(out, p.DOT())
		return nil
	}
	if *rdot {
		g, err := rgraph.Build(p)
		if err != nil {
			return err
		}
		fmt.Fprint(out, g.DOT())
		return nil
	}
	if *ascii {
		fmt.Fprint(out, p.ASCII())
	}

	s := p.Stats()
	fmt.Fprintf(out, "pattern: %d processes, %d messages, checkpoints: %d initial + %d basic + %d forced + %d final\n",
		s.Processes, s.Messages, s.Initial, s.Basic, s.Forced, s.Final)

	report, err := rgraph.CheckRDT(p, *maxViol)
	if err != nil {
		return err
	}

	if *metricsAddr != "" || *events > 0 {
		reg := obs.NewRegistry()
		tracer := obs.NewTracer(obs.DefaultTracerCapacity)
		replayPattern(reg, tracer, p, len(report.Violations))
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
	}
	fmt.Fprintf(out, "RDT property: %v (%d/%d rollback dependencies trackable)\n",
		report.RDT, report.TrackablePairs, report.RPathPairs)
	for _, v := range report.Violations {
		fmt.Fprintf(out, "  violation: %v\n", v)
	}
	if *explain && len(report.Violations) > 0 {
		witnesses, err := rgraph.ExplainReport(p, report)
		if err != nil {
			return err
		}
		for _, w := range witnesses {
			fmt.Fprintf(out, "  witness: %v\n", w)
		}
	}

	if err := rgraph.VerifyRecordedTDVs(p); err != nil {
		fmt.Fprintf(out, "recorded dependency vectors: MISMATCH: %v\n", err)
	} else {
		fmt.Fprintln(out, "recorded dependency vectors: consistent with offline recomputation")
	}

	if *useless {
		g, err := rgraph.Build(p)
		if err != nil {
			return err
		}
		count := 0
		for i := 0; i < p.N; i++ {
			for x := 0; x <= p.LastIndex(model.ProcID(i)); x++ {
				id := model.CkptID{Proc: model.ProcID(i), Index: x}
				if g.Useless(id) {
					fmt.Fprintf(out, "useless checkpoint: %v (on a zigzag cycle)\n", id)
					count++
				}
			}
		}
		fmt.Fprintf(out, "useless checkpoints: %d\n", count)
	}

	if *minAt != "" {
		id, err := parseCkpt(*minAt)
		if err != nil {
			return err
		}
		g, err := rgraph.MinConsistentContaining(p, id)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "minimum consistent global checkpoint containing %v: %v\n", id, g)
	}
	if *maxAt != "" {
		id, err := parseCkpt(*maxAt)
		if err != nil {
			return err
		}
		g, err := rgraph.MaxConsistentContaining(p, id)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "maximum consistent global checkpoint containing %v: %v\n", id, g)
	}
	if *lineAt != "" {
		bounds, err := parseGlobal(*lineAt, p.N)
		if err != nil {
			return err
		}
		line, err := rgraph.RecoveryLine(p, bounds)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "recovery line below %v: %v\n", bounds, line)
	}
	return nil
}

// replayPattern projects an offline pattern into the observability
// model: each checkpoint and message becomes the structured event and
// counter increment the live runtime would have recorded, so the same
// /metrics and /debug/events surface works on archived traces.
func replayPattern(reg *obs.Registry, tracer *obs.Tracer, p *model.Pattern, violations int) {
	basic := reg.Counter("rdt_check_checkpoints_total", "kind", "basic")
	forced := reg.Counter("rdt_check_checkpoints_total", "kind", "forced")
	for _, cs := range p.Checkpoints {
		for i := range cs {
			cp := &cs[i]
			switch cp.Kind {
			case model.KindBasic:
				basic.Inc()
				tracer.Record(obs.Event{
					Type: obs.EventBasicCheckpoint, Proc: int(cp.Proc), Value: cp.Index,
				})
			case model.KindForced:
				forced.Inc()
				tracer.Record(obs.Event{
					Type: obs.EventForcedCheckpoint, Proc: int(cp.Proc), Value: cp.Index,
				})
			}
		}
	}
	messages := reg.Counter("rdt_check_messages_total")
	for _, m := range p.Messages {
		messages.Inc()
		tracer.Record(obs.Event{
			Type: obs.EventSend, Proc: int(m.From), Peer: int(m.To), Value: m.ID,
		})
		tracer.Record(obs.Event{
			Type: obs.EventDeliver, Proc: int(m.To), Peer: int(m.From), Value: m.ID,
		})
	}
	reg.Counter("rdt_check_violations_total").Add(int64(violations))
}

// printEvents writes the tail of the replayed event trace, oldest first.
func printEvents(out io.Writer, tracer *obs.Tracer, n int) {
	if tracer == nil || n <= 0 {
		return
	}
	tail := tracer.Tail(n)
	fmt.Fprintf(out, "events (last %d of %d replayed):\n", len(tail), tracer.Seq())
	for _, ev := range tail {
		fmt.Fprintf(out, "  #%-8d %-17s proc=%d", ev.Seq, ev.Type, ev.Proc)
		if ev.Type == obs.EventSend || ev.Type == obs.EventDeliver {
			fmt.Fprintf(out, " peer=%d", ev.Peer)
		}
		fmt.Fprintf(out, " value=%d\n", ev.Value)
	}
}

// parseCkpt parses "proc,index".
func parseCkpt(s string) (model.CkptID, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return model.CkptID{}, fmt.Errorf("checkpoint %q: want proc,index", s)
	}
	proc, err := strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return model.CkptID{}, fmt.Errorf("checkpoint %q: %w", s, err)
	}
	index, err := strconv.Atoi(strings.TrimSpace(parts[1]))
	if err != nil {
		return model.CkptID{}, fmt.Errorf("checkpoint %q: %w", s, err)
	}
	return model.CkptID{Proc: model.ProcID(proc), Index: index}, nil
}

// parseGlobal parses "x0,x1,...,xn-1".
func parseGlobal(s string, n int) (model.GlobalCheckpoint, error) {
	parts := strings.Split(s, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("bounds %q: want %d comma-separated indexes", s, n)
	}
	g := make(model.GlobalCheckpoint, n)
	for i, part := range parts {
		x, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bounds %q: %w", s, err)
		}
		g[i] = x
	}
	return g, nil
}
