package sim_test

import (
	"testing"

	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/sim"
	"github.com/rdt-go/rdt/internal/workload"
)

// BenchmarkSimulationRun measures one sim.Run. Run i uses seed i mod
// benchSeeds, so ns/op and allocs/op average over the same runs whatever
// b.N is. The groups cell is one run of the paper-scale grid.
func BenchmarkSimulationRun(b *testing.B) {
	const benchSeeds = 8
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
	for _, c := range cells {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := sim.DefaultConfig(c.kind, int64(i%benchSeeds))
				cfg.Duration = c.duration
				if _, err := sim.Run(cfg, c.workload()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
