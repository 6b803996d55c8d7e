// Command rdtserved serves the multi-session RDT checking service: a
// long-running daemon accepting streaming checkpoint/send/deliver
// events from many concurrent client sessions and answering live RDT
// verdicts, recovery-line queries, and pattern dumps over HTTP/JSON.
//
// Usage:
//
//	rdtserved -addr :8080
//
// Drive it with curl:
//
//	curl -X POST localhost:8080/v1/sessions -d '{"id":"run1","n":3}'
//	curl -X POST localhost:8080/v1/sessions/run1/events \
//	     -d '[{"op":"send","proc":0,"peer":1,"msg":0},
//	          {"op":"deliver","msg":0},
//	          {"op":"checkpoint","proc":1}]'
//	curl 'localhost:8080/v1/sessions/run1/verdict?flush=1'
//	curl localhost:8080/v1/sessions/run1/trace | rdtcheck -
//
// SIGINT/SIGTERM drains gracefully: the listener closes, acknowledged
// events are applied, then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"net/http"

	"github.com/rdt-go/rdt/internal/obs"
	"github.com/rdt-go/rdt/internal/service"
	"github.com/rdt-go/rdt/internal/shard"
	"github.com/rdt-go/rdt/internal/stream"
	"github.com/rdt-go/rdt/internal/version"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rdtserved:", err)
		os.Exit(1)
	}
}

// serving is a test seam: it runs once the listener is bound, with the
// bound address.
var serving = func(addr string) {}

// servingStream is the same seam for the binary stream listener.
var servingStream = func(addr string) {}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rdtserved", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", ":8080", "HTTP listen address (:0 picks a port)")
		maxCkpts = fs.Int("max-checkpoints", service.DefaultMaxCheckpoints, "maximum checkpoints per session")
		idle     = fs.Duration("idle-timeout", 30*time.Minute, "evict sessions untouched this long (0 disables)")
		drain    = fs.Duration("drain-timeout", 10*time.Second, "graceful-shutdown budget")
		dataDir  = fs.String("data-dir", "", "durable session state directory: one WAL per session, replayed on start (empty disables durability)")

		streamAddr = fs.String("stream-addr", "", "binary streaming ingest (RDTSTRM1) listen address (:0 picks a port; empty disables)")

		shardSelf    = fs.String("shard-self", "", "this daemon's cluster member name (enables shard mode; requires -data-dir)")
		shardMembers = fs.String("shard-members", "", "static membership seed: name=HTTPADDR[+STREAMADDR],... (adopted as ring epoch 1; empty waits for a config push)")
		shardVNodes  = fs.Int("shard-vnodes", shard.DefaultVNodes, "virtual nodes per member on the consistent-hash ring")

		pprofAddr   = fs.String("pprof-addr", "", "serve /debug/pprof and runtime gauges on this extra address (:0 picks a port; empty disables profiling)")
		showVersion = fs.Bool("version", false, "print version and exit")
	)
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		fmt.Fprintf(out, "rdtserved %s\n", version.String())
		return nil
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	// Every limit without a flag is its package's default.
	svc, err := service.New(service.Config{
		MaxCheckpoints: *maxCkpts,
		IdleTimeout:    *idle,
		DataDir:        *dataDir,
		Registry:       obs.NewRegistry(),
		Tracer:         obs.NewTracer(obs.DefaultTracerCapacity),
	})
	if err != nil {
		return err
	}
	if *dataDir != "" {
		// Recovery runs before the listener binds, so the first request
		// already sees every persisted session.
		start := time.Now()
		stats, err := svc.Recover()
		if err != nil {
			return fmt.Errorf("recover %s: %w", *dataDir, err)
		}
		fmt.Fprintf(out,
			"rdtserved: recovered %d sessions from %s in %s (%d records / %d events replayed, %d WAL tails truncated, %d sessions quarantined)\n",
			stats.Sessions, *dataDir, time.Since(start).Round(time.Millisecond),
			stats.Records, stats.Events, stats.Truncations, stats.QuarantinedSessions)
	}
	var node *shard.Node
	handler := service.NewHandler(svc)
	if *shardSelf != "" {
		node, err = shard.NewNode(shard.NodeConfig{
			Self:     *shardSelf,
			Service:  svc,
			Registry: svc.Config().Registry,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(out, "rdtserved: "+format+"\n", args...)
			},
		})
		if err != nil {
			return err
		}
		mux := http.NewServeMux()
		node.Register(mux)
		mux.Handle("/", handler)
		handler = mux
		if *shardMembers != "" {
			members, err := shard.ParseMembers(*shardMembers)
			if err != nil {
				return err
			}
			ring, err := shard.New(1, *shardVNodes, members)
			if err != nil {
				return err
			}
			if _, err := node.AdoptRing(ring); err != nil {
				return err
			}
		}
	} else if *shardMembers != "" {
		return fmt.Errorf("-shard-members requires -shard-self")
	}
	srv, err := service.ServeHandler(*addr, handler)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "rdtserved: listening on %s (metrics: http://%s/metrics)\n", srv.Addr(), srv.Addr())
	if node != nil {
		fmt.Fprintf(out, "rdtserved: shard member %q\n", *shardSelf)
	}
	var strmSrv *stream.Server
	if *streamAddr != "" {
		strmSrv, err = stream.Serve(*streamAddr, stream.Config{Service: svc, Registry: svc.Config().Registry})
		if err != nil {
			_ = srv.Close()
			return err
		}
		fmt.Fprintf(out, "rdtserved: stream ingest on %s\n", strmSrv.Addr())
		servingStream(strmSrv.Addr())
	}
	if *pprofAddr != "" {
		// Profiling lives on its own listener so the API address can stay
		// exposed while pprof stays private.
		psrv, err := obs.Serve(*pprofAddr, svc.Config().Registry, nil, true)
		if err != nil {
			return err
		}
		defer psrv.Close() //nolint:errcheck
		fmt.Fprintf(out, "rdtserved: profiling on http://%s/debug/pprof/\n", psrv.Addr())
	}
	serving(srv.Addr())

	<-ctx.Done()
	fmt.Fprintln(out, "rdtserved: draining")
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if strmSrv != nil {
		// Streams drain first: clients get GOODBYE, stop sending, and
		// collect their remaining acks before the service itself drains.
		if err := strmSrv.Shutdown(dctx); err != nil {
			fmt.Fprintf(out, "rdtserved: stream shutdown: %v\n", err)
		}
	}
	if node != nil {
		// A departing member may still be handing sessions off; those
		// exports need the service alive.
		node.WaitRebalance()
	}
	if err := srv.Shutdown(dctx); err != nil {
		_ = srv.Close()
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := svc.Drain(dctx); err != nil {
		return err
	}
	fmt.Fprintln(out, "rdtserved: drained")
	return nil
}
