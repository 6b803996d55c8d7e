package sim_test

import (
	"testing"

	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/sim"
	"github.com/rdt-go/rdt/internal/workload"
)

// paperKinds are the eight protocols of the paper-scale grid's figures.
var paperKinds = []core.Kind{
	core.KindBHMR, core.KindBHMRNoSimple, core.KindBHMRCausalOnly,
	core.KindFDAS, core.KindFDI, core.KindNRAS, core.KindCBR, core.KindCAS,
}

// BenchmarkSimulationRun measures one protocol run. Run i uses seed i mod
// benchSeeds, so ns/op and allocs/op average over the same runs whatever
// b.N is. The groups cell is one run of the paper-scale grid.
//
// The schedule cells run the eight paper protocols over paper-scale
// random schedules (n = 8, 1500 time units, basic mean 8), one protocol
// per op: schedule-x1 records a schedule for every run, as sim.Run does,
// and schedule-x8 records one and replays it for all eight, as the grid
// does, so the pair prices the sharing.
//
// Each row has a -count twin that replays with Schedule.Count instead of
// Schedule.Run: the same protocol calls, no pattern built, as the grid's
// count-only experiments replay.
func BenchmarkSimulationRun(b *testing.B) {
	const benchSeeds = 8
	// replay runs one protocol over s, building its pattern or counting.
	replay := func(b *testing.B, s *sim.Schedule, kind core.Kind, count bool) {
		var err error
		if count {
			_, err = s.Count(kind, nil)
		} else {
			_, err = s.Run(kind, nil)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	cells := []struct {
		name     string
		kind     core.Kind
		duration float64
		workload func() sim.Workload
	}{
		{"bhmr", core.KindBHMR, 100, func() sim.Workload { return &workload.Random{MeanGap: 1} }},
		{"fdas", core.KindFDAS, 100, func() sim.Workload { return &workload.Random{MeanGap: 1} }},
		{"groups-bhmr-1000", core.KindBHMR, 1000, func() sim.Workload {
			w, _ := workload.ByName("groups")
			return w
		}},
	}
	for _, count := range []bool{false, true} {
		suffix := ""
		if count {
			suffix = "-count"
		}
		for _, c := range cells {
			b.Run(c.name+suffix, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					cfg := sim.DefaultConfig(c.kind, int64(i%benchSeeds))
					cfg.Duration = c.duration
					s, err := sim.Record(cfg, c.workload())
					if err != nil {
						b.Fatal(err)
					}
					replay(b, s, c.kind, count)
					s.Release()
				}
			})
		}
		for _, share := range []int{1, len(paperKinds)} {
			name := "schedule-x1"
			if share > 1 {
				name = "schedule-x8"
			}
			b.Run(name+suffix, func(b *testing.B) {
				b.ReportAllocs()
				var s *sim.Schedule
				for i := 0; i < b.N; i++ {
					if i%share == 0 {
						if s != nil {
							s.Release()
						}
						cfg := sim.DefaultConfig(core.KindBHMR, int64(i/len(paperKinds)%benchSeeds))
						cfg.Duration = 1500
						cfg.BasicMean = 8
						var err error
						if s, err = sim.Record(cfg, &workload.Random{MeanGap: 1}); err != nil {
							b.Fatal(err)
						}
					}
					replay(b, s, paperKinds[i%len(paperKinds)], count)
				}
			})
		}
	}
}

// BenchmarkScheduleCount is the per-protocol row of the counting replay:
// Count of each paper protocol over one fixed paper-scale schedule
// (n = 8, 1500 time units, basic mean 8, seed 1) of the random and
// groups environments, one replay per op, with the time per message
// sent.
func BenchmarkScheduleCount(b *testing.B) {
	for _, env := range []string{"random", "groups"} {
		w, err := workload.ByName(env)
		if err != nil {
			b.Fatal(err)
		}
		cfg := sim.DefaultConfig(core.KindBHMR, 1)
		cfg.Duration, cfg.BasicMean = 1500, 8
		s, err := sim.Record(cfg, w)
		if err != nil {
			b.Fatal(err)
		}
		for _, kind := range paperKinds {
			b.Run(env+"/"+kind.String(), func(b *testing.B) {
				b.ReportAllocs()
				var st model.Stats
				for i := 0; i < b.N; i++ {
					if st, err = s.Count(kind, nil); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*st.Messages), "ns/message")
			})
		}
		s.Release()
	}
}
