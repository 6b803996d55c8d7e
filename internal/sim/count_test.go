package sim_test

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/obs"
	"github.com/rdt-go/rdt/internal/sim"
	"github.com/rdt-go/rdt/internal/trace"
	"github.com/rdt-go/rdt/internal/workload"
)

// replayed is what one replay shows besides its result: how often its
// monitor ran, its metrics as /metrics renders them, and its trace.
type replayed struct {
	calls   int
	metrics string
	events  []obs.Event
}

// replayOnce records cfg's schedule with a fresh registry and tracer
// and replays kind over it with do, counting the monitor's calls when
// counted is set.
func replayOnce(t *testing.T, cfg sim.Config, env string, kind core.Kind, counted bool,
	do func(*sim.Schedule, core.Kind, func(core.Instance, int, core.Piggyback)) error) replayed {
	t.Helper()
	w, err := workload.ByName(env)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Obs = obs.NewRegistry()
	cfg.Tracer = obs.NewTracer(1 << 16)
	s, err := sim.Record(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	var r replayed
	var monitor func(core.Instance, int, core.Piggyback)
	if counted {
		monitor = func(core.Instance, int, core.Piggyback) { r.calls++ }
	}
	if err := do(s, kind, monitor); err != nil {
		t.Fatal(err)
	}
	if cfg.Tracer.Dropped() > 0 {
		t.Fatalf("the tracer dropped %d events; enlarge it", cfg.Tracer.Dropped())
	}
	var buf bytes.Buffer
	if err := cfg.Obs.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	r.metrics = buf.String()
	r.events = cfg.Tracer.Tail(int(cfg.Tracer.Seq()))
	return r
}

// TestCountMatchesRun: the counting replay is the building replay
// without the pattern, for every protocol, environment and seed, with
// and without a monitor. Count's statistics are Run's, its monitor runs
// as often, and fresh registries and tracers hold the same metrics and
// events after either.
func TestCountMatchesRun(t *testing.T) {
	for _, kind := range core.Kinds() {
		for _, env := range []string{"random", "groups", "client-server"} {
			t.Run(fmt.Sprintf("%v/%s", kind, env), func(t *testing.T) {
				t.Parallel()
				for seed := int64(1); seed <= 3; seed++ {
					cfg := sim.DefaultConfig(kind, seed)
					cfg.Duration = 300
					cfg.BasicMean = 4
					for _, counted := range []bool{false, true} {
						var want, got model.Stats
						run := replayOnce(t, cfg, env, kind, counted, func(s *sim.Schedule, k core.Kind, m func(core.Instance, int, core.Piggyback)) error {
							res, err := s.Run(k, m)
							if err == nil {
								want = res.Stats
							}
							return err
						})
						count := replayOnce(t, cfg, env, kind, counted, func(s *sim.Schedule, k core.Kind, m func(core.Instance, int, core.Piggyback)) error {
							var err error
							got, err = s.Count(k, m)
							return err
						})
						if got != want {
							t.Errorf("seed %d, monitor %v: Count %+v, Run %+v", seed, counted, got, want)
						}
						if counted && (run.calls == 0 || count.calls != run.calls) {
							t.Errorf("seed %d: the monitor ran %d times under Count, %d under Run", seed, count.calls, run.calls)
						}
						if count.metrics != run.metrics {
							t.Errorf("seed %d, monitor %v: metrics differ:\ncount %s\nrun   %s", seed, counted, count.metrics, run.metrics)
						}
						if len(run.events) == 0 || !reflect.DeepEqual(count.events, run.events) {
							t.Errorf("seed %d, monitor %v: %d trace events under Count, %d under Run, or they differ",
								seed, counted, len(count.events), len(run.events))
						}
					}
				}
			})
		}
	}
}

// TestKeptPatternSurvivesLaterReplays: a checkpoint record lends the
// instance's vector and the pooled builder copies it into a chunk it
// never rewinds, so a pattern kept from one replay is unchanged, byte
// for byte, after later replays of other protocols reuse the pools. The
// test runs on one P with the collector off, so that a pool hands each
// replay the builder the previous one released.
func TestKeptPatternSurvivesLaterReplays(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cfg := sim.DefaultConfig(core.KindBHMR, 5)
	cfg.Duration = 300
	s, err := sim.Record(cfg, &workload.Random{MeanGap: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	save := func(p *model.Pattern) []byte {
		var buf bytes.Buffer
		if err := trace.Save(&buf, p); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	kept, err := s.Run(core.KindBHMR, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := save(kept.Pattern)
	var others []core.Kind
	for _, k := range core.Kinds() {
		if k != core.KindBHMR {
			others = append(others, k)
		}
	}
	for i := 0; i < 10; i++ {
		if _, err := s.Run(others[i%len(others)], nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := save(kept.Pattern); !bytes.Equal(got, want) {
		t.Error("later replays changed a pattern kept from an earlier one")
	}
}
