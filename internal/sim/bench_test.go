package sim_test

import (
	"testing"

	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/sim"
	"github.com/rdt-go/rdt/internal/workload"
)

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
