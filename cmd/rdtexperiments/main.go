// Command rdtexperiments regenerates the complete evaluation: the
// forced-checkpoint overhead figures for the random, overlapping-group
// and client/server environments (Figures 7–9), the reduction-vs-FDAS
// table (the paper's headline "never less than 10%"), the piggyback-size
// comparison of Section 5.2, and the extension experiments (domino
// effect, BHMR-family ablation, Corollary 4.5 agreement). Tables are
// printed to stdout; -csv additionally writes one CSV per artifact.
//
// Usage:
//
//	rdtexperiments            # paper-scale run (about 1.1 s on 2 cores)
//	rdtexperiments -quick     # reduced grid for smoke testing
//	rdtexperiments -csv out/  # also write CSV files
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/rdt-go/rdt/internal/experiments"
	"github.com/rdt-go/rdt/internal/obs"
	"github.com/rdt-go/rdt/internal/stats"
	"github.com/rdt-go/rdt/internal/version"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rdtexperiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rdtexperiments", flag.ContinueOnError)
	var (
		quick       = fs.Bool("quick", false, "use the reduced experiment grid")
		csvDir      = fs.String("csv", "", "directory to write CSV artifacts into")
		jobs        = fs.Int("jobs", 0, "worker goroutines for the simulation grid (0 = GOMAXPROCS); output is identical for every value")
		metricsAddr = fs.String("metrics-addr", "", "serve live Prometheus /metrics for the running grid on this address (:0 picks a port)")
		pprof       = fs.Bool("pprof", false, "also mount /debug/pprof and runtime gauges on the -metrics-addr server")
		showVersion = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		fmt.Fprintf(out, "rdtexperiments %s\n", version.String())
		return nil
	}
	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	cfg.Jobs = *jobs
	// The registry is always on: its rdt_experiment_runs_total counter is
	// the progress measure reported at the end (incremented atomically, so
	// the tally is exact under any -jobs value).
	cfg.Obs = obs.NewRegistry()
	if *metricsAddr != "" {
		srv, err := obs.Serve(*metricsAddr, cfg.Obs, nil, *pprof)
		if err != nil {
			return err
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
		}()
		fmt.Fprintf(out, "metrics: http://%s/metrics\n", srv.Addr())
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}

	emit := func(name string, t *stats.Table) error {
		fmt.Fprintln(out, t.Render())
		fmt.Fprintln(out)
		if *csvDir == "" {
			return nil
		}
		path := filepath.Join(*csvDir, name+".csv")
		if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
			return fmt.Errorf("write %s: %w", path, err)
		}
		return nil
	}

	for i, env := range experiments.Environments() {
		series, err := experiments.FigureR(cfg, env)
		if err != nil {
			return err
		}
		if err := emit(fmt.Sprintf("figure%d_%s", 7+i, env), series.Table()); err != nil {
			return err
		}
	}

	reduction, err := experiments.ReductionVsFDAS(cfg)
	if err != nil {
		return err
	}
	if err := emit("table_reduction_vs_fdas", reduction); err != nil {
		return err
	}

	piggyback, err := experiments.PiggybackSizes([]int{4, 8, 16, 32, 64})
	if err != nil {
		return err
	}
	if err := emit("table_piggyback", piggyback); err != nil {
		return err
	}

	domino, err := experiments.Domino(cfg)
	if err != nil {
		return err
	}
	if err := emit("table_domino", domino); err != nil {
		return err
	}

	ablation, err := experiments.Ablation(cfg)
	if err != nil {
		return err
	}
	if err := emit("table_ablation", ablation); err != nil {
		return err
	}

	agreement, err := experiments.MinGlobalAgreement(cfg)
	if err != nil {
		return err
	}
	if err := emit("table_corollary45", agreement); err != nil {
		return err
	}

	delays, err := experiments.DelaySensitivity(cfg)
	if err != nil {
		return err
	}
	if err := emit("figure_delay_sensitivity", delays.Table()); err != nil {
		return err
	}

	attribution, err := experiments.ConditionAttribution(cfg)
	if err != nil {
		return err
	}
	if err := emit("table_condition_attribution", attribution); err != nil {
		return err
	}

	guarantees, err := experiments.Guarantees(cfg)
	if err != nil {
		return err
	}
	if err := emit("table_guarantees", guarantees); err != nil {
		return err
	}

	resolved := cfg.Jobs
	if resolved <= 0 {
		resolved = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(out, "completed %d simulations (jobs=%d)\n",
		cfg.Obs.Counter("rdt_experiment_runs_total").Value(), resolved)
	return nil
}
