package sim_test

import (
	"testing"

	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/sim"
	"github.com/rdt-go/rdt/internal/workload"
)

// TestRunAllocs: a paper-scale run allocates per run, not per event. The
// event queue and the builder reuse their buffers, sends schedule no
// closure, a released schedule's tape serves the next recording, and the
// protocols carve checkpoint vectors and piggyback snapshots from chunks,
// so a BHMR run in the random environment makes far fewer allocations
// than it sends messages. So does recording its schedule alone, and so
// does each protocol's replay of the recorded schedule.
func TestRunAllocs(t *testing.T) {
	cfg := sim.DefaultConfig(core.KindBHMR, 1)
	messages := 0
	allocs := testing.AllocsPerRun(3, func() {
		res, err := sim.Run(cfg, &workload.Random{MeanGap: 1})
		if err != nil {
			t.Fatal(err)
		}
		messages = len(res.Pattern.Messages)
	})
	if messages < 5000 {
		t.Fatalf("the run sent %d messages, want a paper-scale run", messages)
	}
	budget := float64(messages) / 10
	if allocs > budget {
		t.Errorf("run: %.0f allocations for %d messages, want under %.0f", allocs, messages, budget)
	}

	var s *sim.Schedule
	allocs = testing.AllocsPerRun(3, func() {
		if s != nil {
			s.Release()
		}
		var err error
		if s, err = sim.Record(cfg, &workload.Random{MeanGap: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Errorf("record: %.0f allocations for %d messages, want under %.0f", allocs, messages, budget)
	}
	for _, kind := range core.Kinds() {
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := s.Run(kind, nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > budget {
			t.Errorf("replay of %v: %.0f allocations for %d messages, want under %.0f", kind, allocs, messages, budget)
		}
	}
}
