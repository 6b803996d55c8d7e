package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/obs"
	"github.com/rdt-go/rdt/internal/sim"
	"github.com/rdt-go/rdt/internal/workload"
)

// monitorCall is one Monitor invocation, its piggyback deep-copied.
type monitorCall struct {
	proc, from int
	pb         core.Piggyback
}

// observed is everything a run shows: its result, its Monitor calls,
// its metrics and its trace.
type observed struct {
	res    *sim.Result
	calls  []monitorCall
	series obs.Snapshot
	events []obs.Event
}

func observe(t *testing.T, cfg sim.Config, env string, run func(sim.Config, sim.Workload) (*sim.Result, error)) observed {
	t.Helper()
	w, err := workload.ByName(env)
	if err != nil {
		t.Fatal(err)
	}
	var o observed
	cfg.Obs = obs.NewRegistry()
	cfg.Tracer = obs.NewTracer(1 << 16)
	cfg.Monitor = func(inst core.Instance, from int, pb core.Piggyback) {
		o.calls = append(o.calls, monitorCall{proc: inst.Proc(), from: from, pb: pb.Clone()})
	}
	if o.res, err = run(cfg, w); err != nil {
		t.Fatal(err)
	}
	if cfg.Tracer.Dropped() > 0 {
		t.Fatalf("the tracer dropped %d events; enlarge it", cfg.Tracer.Dropped())
	}
	o.series = cfg.Obs.Snapshot()
	o.events = cfg.Tracer.Tail(int(cfg.Tracer.Seq()))
	return o
}

// TestReplayMatchesLiveRun: recording a schedule and replaying a
// protocol over it is the live interleaved run, for every protocol,
// environment and seed, with the default channel delays, with a wide
// delay window that reorders many messages, and on a short horizon.
// The pattern, its statistics, the wire size, every Monitor call with
// its piggyback, every metric series and every trace event must be
// equal.
func TestReplayMatchesLiveRun(t *testing.T) {
	variants := []struct {
		name  string
		apply func(*sim.Config)
	}{
		{"default", func(*sim.Config) {}},
		{"wide-delays", func(c *sim.Config) { c.DelayMin, c.DelayMax = 0.05, 8 }},
		{"short", func(c *sim.Config) { c.Duration /= 5 }},
	}
	for _, kind := range core.Kinds() {
		for _, env := range []string{"random", "groups", "client-server"} {
			for _, v := range variants {
				t.Run(fmt.Sprintf("%v/%s/%s", kind, env, v.name), func(t *testing.T) {
					t.Parallel()
					for seed := int64(1); seed <= 5; seed++ {
						cfg := sim.DefaultConfig(kind, seed)
						cfg.Duration = 300
						cfg.BasicMean = 4
						v.apply(&cfg)
						live := observe(t, cfg, env, sim.LiveRun)
						got := observe(t, cfg, env, sim.Run)
						compareObserved(t, seed, live, got)
					}
				})
			}
		}
	}
}

func compareObserved(t *testing.T, seed int64, live, got observed) {
	t.Helper()
	if !reflect.DeepEqual(live.res.Pattern, got.res.Pattern) {
		t.Errorf("seed %d: the replayed pattern differs from the live one", seed)
	}
	if live.res.Stats != got.res.Stats {
		t.Errorf("seed %d: stats %+v, live %+v", seed, got.res.Stats, live.res.Stats)
	}
	if live.res.WireBytesPerMessage != got.res.WireBytesPerMessage || live.res.Workload != got.res.Workload {
		t.Errorf("seed %d: wire bytes %d of %s, live %d of %s", seed,
			got.res.WireBytesPerMessage, got.res.Workload, live.res.WireBytesPerMessage, live.res.Workload)
	}
	if len(live.calls) == 0 || !reflect.DeepEqual(live.calls, got.calls) {
		t.Errorf("seed %d: %d monitor calls, live %d, or they differ", seed, len(got.calls), len(live.calls))
	}
	if !reflect.DeepEqual(live.series, got.series) {
		t.Errorf("seed %d: metric series differ:\nreplay %+v\nlive   %+v", seed, got.series, live.series)
	}
	if len(live.events) == 0 || !reflect.DeepEqual(live.events, got.events) {
		t.Errorf("seed %d: %d trace events, live %d, or they differ", seed, len(got.events), len(live.events))
	}
}

// TestScheduleReplaysAreIndependent: one schedule replayed by every
// protocol in turn, and again in reverse order, gives each protocol the
// result of its own fresh run.
func TestScheduleReplaysAreIndependent(t *testing.T) {
	cfg := sim.DefaultConfig(core.KindBHMR, 3)
	cfg.Duration = 300
	cfg.BasicMean = 4
	w, _ := workload.ByName("groups")
	s, err := sim.Record(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	kinds := core.Kinds()
	for pass := 0; pass < 2; pass++ {
		for j := range kinds {
			kind := kinds[j]
			if pass == 1 {
				kind = kinds[len(kinds)-1-j]
			}
			got, err := s.Run(kind, nil)
			if err != nil {
				t.Fatal(err)
			}
			one := cfg
			one.Protocol = kind
			fresh, _ := workload.ByName("groups")
			want, err := sim.Run(one, fresh)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("pass %d, %v: a replay of the shared schedule differs from a fresh run", pass, kind)
			}
		}
	}
}
