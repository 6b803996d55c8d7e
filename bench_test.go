package rdt_test

// One benchmark per artifact of the evaluation (see DESIGN.md §5):
//
//	BenchmarkFigRandomEnvironment   — E1, "R in random environments"
//	BenchmarkFigOverlappingGroups   — E2, Figure 8
//	BenchmarkFigClientServer        — E3, Figure 9
//	BenchmarkTableReductionVsFDAS   — E4, headline reduction table
//	BenchmarkTablePiggybackSize     — E5, control-information cost
//	BenchmarkMinGlobalCheckpoint    — E6, Corollary 4.5 on-the-fly vs brute force
//	BenchmarkDominoEffect           — E7, rollback depth with/without coordination
//	BenchmarkAblationVariants       — E8, BHMR family ablation
//
// The figure/table benchmarks run the same harness as cmd/rdtexperiments
// (reduced grid) and surface the headline values as custom metrics, so
// `go test -bench=.` regenerates every number of EXPERIMENTS.md in
// miniature. Micro-benchmarks for the protocol hot path and the offline
// analyses follow.

import (
	"fmt"
	"runtime"
	"testing"

	rdt "github.com/rdt-go/rdt"
	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/experiments"
	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/rgraph"
	"github.com/rdt-go/rdt/internal/sim"
	"github.com/rdt-go/rdt/internal/workload"
)

// benchFigure runs one environment figure and reports the mid-sweep R of
// the paper's protocol and of FDAS as custom metrics.
func benchFigure(b *testing.B, env string) {
	b.Helper()
	cfg := experiments.Quick()
	var last *struct{ bhmr, fdas float64 }
	for i := 0; i < b.N; i++ {
		series, err := experiments.FigureR(cfg, env)
		if err != nil {
			b.Fatal(err)
		}
		last = &struct{ bhmr, fdas float64 }{
			bhmr: series.Lines[core.KindBHMR.String()][len(cfg.BasicMeans)-1],
			fdas: series.Lines[core.KindFDAS.String()][len(cfg.BasicMeans)-1],
		}
	}
	if last != nil {
		b.ReportMetric(last.bhmr, "R(bhmr)")
		b.ReportMetric(last.fdas, "R(fdas)")
	}
}

func BenchmarkFigRandomEnvironment(b *testing.B) { benchFigure(b, "random") }
func BenchmarkFigOverlappingGroups(b *testing.B) { benchFigure(b, "groups") }
func BenchmarkFigClientServer(b *testing.B)      { benchFigure(b, "client-server") }

func BenchmarkTableReductionVsFDAS(b *testing.B) {
	cfg := experiments.Quick()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ReductionVsFDAS(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTablePiggybackSize measures the per-message protocol cost that
// the size table summarizes: building the piggyback on send (the dominant
// per-message work of each protocol), with the wire size as metric.
func BenchmarkTablePiggybackSize(b *testing.B) {
	for _, kind := range []core.Kind{core.KindFDAS, core.KindBHMRCausalOnly, core.KindBHMR} {
		for _, n := range []int{8, 32} {
			b.Run(fmt.Sprintf("%v/n=%d", kind, n), func(b *testing.B) {
				inst, err := core.New(kind, 0, n, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(inst.WireSize()), "wire-bytes")
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pb, _ := inst.OnSend(1)
					_ = pb
				}
			})
		}
	}
}

// minGlobalFixture simulates one annotated BHMR trace for E6.
func minGlobalFixture(b *testing.B) *model.Pattern {
	b.Helper()
	cfg := sim.DefaultConfig(core.KindBHMR, 31)
	cfg.N = 6
	cfg.Duration = 150
	res, err := sim.Run(cfg, &workload.Random{MeanGap: 1})
	if err != nil {
		b.Fatal(err)
	}
	return res.Pattern
}

func BenchmarkMinGlobalCheckpoint(b *testing.B) {
	p := minGlobalFixture(b)
	target := model.CkptID{Proc: 2, Index: len(p.Checkpoints[2]) / 2}
	ck, err := p.Checkpoint(target)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("on-the-fly", func(b *testing.B) {
		// Corollary 4.5: the protocol already computed the answer; reading
		// it is a vector copy.
		for i := 0; i < b.N; i++ {
			g := make(model.GlobalCheckpoint, len(ck.TDV))
			copy(g, ck.TDV)
		}
	})
	b.Run("brute-force", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rgraph.MinConsistentContaining(p, target); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkDominoEffect(b *testing.B) {
	cfg := experiments.Quick()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Domino(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationVariants(b *testing.B) {
	cfg := experiments.Quick()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Ablation(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks: protocol hot path ---

// BenchmarkProtocolArrival measures the per-delivery cost of each
// protocol's condition evaluation plus control merge at n=8.
func BenchmarkProtocolArrival(b *testing.B) {
	for _, kind := range core.Kinds() {
		b.Run(kind.String(), func(b *testing.B) {
			const n = 8
			sender, err := core.New(kind, 1, n, nil)
			if err != nil {
				b.Fatal(err)
			}
			receiver, err := core.New(kind, 0, n, nil)
			if err != nil {
				b.Fatal(err)
			}
			pb, _ := sender.OnSend(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				receiver.OnArrival(1, pb)
			}
		})
	}
}

func BenchmarkSimulationRun(b *testing.B) {
	for _, kind := range []core.Kind{core.KindBHMR, core.KindFDAS} {
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := sim.DefaultConfig(kind, int64(i))
				cfg.N = 8
				cfg.Duration = 100
				if _, err := sim.Run(cfg, &workload.Random{MeanGap: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Micro-benchmarks: offline analyses ---

func BenchmarkRGraphBuild(b *testing.B) {
	p := minGlobalFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rgraph.Build(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComputeTDVs(b *testing.B) {
	p := minGlobalFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rgraph.ComputeTDVs(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckRDT(b *testing.B) {
	p := minGlobalFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rgraph.CheckRDT(p, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterThroughput measures end-to-end runtime message cost
// (protocol + codec + transport + trace recording).
func BenchmarkClusterThroughput(b *testing.B) {
	c, err := rdt.NewCluster(rdt.ClusterConfig{N: 4, Protocol: rdt.BHMR})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Stop() //nolint:errcheck // benchmark cleanup
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Node(0).Send(1, []byte("x")); err != nil {
			b.Fatal(err)
		}
		if i%256 == 0 {
			c.Quiesce()
		}
	}
	c.Quiesce()
}

// BenchmarkObsOverhead isolates the cost of the observability layer on
// the runtime's send/deliver hot path: the same workload with
// instrumentation off (the nil fast path), metrics only, and metrics
// plus event tracing. Comparing ns/op across the three sub-benchmarks
// bounds the instrumentation overhead (the metrics path is expected to
// stay within a few percent of "off").
func BenchmarkObsOverhead(b *testing.B) {
	variants := []struct {
		name   string
		obs    func() *rdt.MetricsRegistry
		tracer func() *rdt.EventTracer
	}{
		{"off", func() *rdt.MetricsRegistry { return nil }, func() *rdt.EventTracer { return nil }},
		{"metrics", rdt.NewMetricsRegistry, func() *rdt.EventTracer { return nil }},
		{"metrics+events", rdt.NewMetricsRegistry,
			func() *rdt.EventTracer { return rdt.NewEventTracer(rdt.DefaultEventCapacity) }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			c, err := rdt.NewCluster(rdt.ClusterConfig{
				N: 4, Protocol: rdt.BHMR, Obs: v.obs(), Tracer: v.tracer(),
			})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Stop() //nolint:errcheck // benchmark cleanup
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Node(0).Send(1, []byte("x")); err != nil {
					b.Fatal(err)
				}
				if i%256 == 0 {
					c.Quiesce()
				}
			}
			c.Quiesce()
		})
	}
}

// BenchmarkObsInstruments measures the raw per-operation cost of the
// instruments themselves, including the nil no-op path.
func BenchmarkObsInstruments(b *testing.B) {
	reg := rdt.NewMetricsRegistry()
	counter := reg.Counter("bench_counter_total")
	hist := reg.Histogram("bench_hist", nil)
	tracer := rdt.NewEventTracer(1024)
	b.Run("counter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			counter.Inc()
		}
	})
	b.Run("counter-nil", func(b *testing.B) {
		var nr *rdt.MetricsRegistry
		c := nr.Counter("unused_total")
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("histogram", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hist.Observe(float64(i % 100))
		}
	})
	b.Run("tracer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tracer.Record(rdt.TraceEvent{Type: rdt.EventSend, Proc: i % 4})
		}
	})
}

// BenchmarkRGraphScaling measures the offline analyses as trace size
// grows (nodes here are checkpoints of the R-graph).
func BenchmarkRGraphScaling(b *testing.B) {
	for _, duration := range []float64{100, 400, 1600} {
		cfg := sim.DefaultConfig(core.KindBHMR, 47)
		cfg.N = 8
		cfg.Duration = duration
		res, err := sim.Run(cfg, &workload.Random{MeanGap: 1})
		if err != nil {
			b.Fatal(err)
		}
		p := res.Pattern
		b.Run(fmt.Sprintf("build/ckpts=%d", p.NumCheckpoints()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rgraph.Build(p); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("checkRDT/ckpts=%d", p.NumCheckpoints()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rgraph.CheckRDT(p, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExhaustiveExploration measures the explorer's schedule
// throughput on the two-process scenario.
func BenchmarkExhaustiveExploration(b *testing.B) {
	scripts := [][]rdt.ScenarioOp{
		{rdt.ScenarioSend(1), rdt.ScenarioCheckpoint(), rdt.ScenarioSend(1)},
		{rdt.ScenarioSend(0)},
	}
	// Collect the preceding scaling benchmarks' garbage so this
	// allocation-heavy loop starts from a clean heap regardless of suite
	// order.
	runtime.GC()
	b.ResetTimer()
	execs := 0
	for i := 0; i < b.N; i++ {
		res, err := rdt.Explore(rdt.BHMR, scripts, func([]rdt.ScheduleChoice, *rdt.Pattern) error { return nil })
		if err != nil {
			b.Fatal(err)
		}
		execs = res.Executions
	}
	b.ReportMetric(float64(execs), "schedules")
}
