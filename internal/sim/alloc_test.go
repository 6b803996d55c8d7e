package sim_test

import (
	"testing"

	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/sim"
	"github.com/rdt-go/rdt/internal/workload"
)

// TestRunAllocs: a paper-scale run allocates per run, not per event. The
// event queue and the builder reuse their buffers, sends schedule no
// closure, and the protocols carve checkpoint vectors and piggyback
// snapshots from chunks, so a BHMR run in the random environment makes
// far fewer allocations than it sends messages.
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
	if allocs > float64(messages)/10 {
		t.Errorf("%.0f allocations for %d messages, want under %d", allocs, messages, messages/10)
	}
}
