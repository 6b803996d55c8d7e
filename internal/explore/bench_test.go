package explore

import (
	"testing"

	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/sim"
)

// BenchmarkExhaustiveExploration measures the explorer's schedule
// throughput on the two-process scenario.
func BenchmarkExhaustiveExploration(b *testing.B) {
	scripts := [][]Op{
		{Send(1), Checkpoint(), Send(1)},
		{Send(0)},
	}
	execs := 0
	for i := 0; i < b.N; i++ {
		res, err := Run(core.KindBHMR, scripts, func([]sim.Op, *model.Pattern) error { return nil })
		if err != nil {
			b.Fatal(err)
		}
		execs = res.Executions
	}
	b.ReportMetric(float64(execs), "schedules")
}
