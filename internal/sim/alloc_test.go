package sim_test

import (
	"runtime"
	"testing"

	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/sim"
	"github.com/rdt-go/rdt/internal/workload"
)

// TestRunAllocs: a paper-scale run allocates per run, not per event. The
// event queue and the builder reuse their buffers, sends schedule no
// closure, a released schedule's tape serves the next recording, the
// builder copies checkpoint vectors into chunks and the protocols carve
// piggyback snapshots from chunks, so a BHMR run in the random
// environment makes far fewer allocations than it sends messages. So
// does recording its schedule alone, and so does each protocol's replay
// of the recorded schedule, building or counting. A counting replay
// builds no pattern, so it allocates at most half the bytes of the
// building one. It writes every piggyback into the replay's pooled slot
// table, so after warm-up it allocates its instances and nothing per
// message: the same fixed budget holds for every protocol at four times
// the messages.
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
		run := func() {
			if _, err := s.Run(kind, nil); err != nil {
				t.Fatal(err)
			}
		}
		count := func() {
			if _, err := s.Count(kind, nil); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(3, run); allocs > budget {
			t.Errorf("replay of %v: %.0f allocations for %d messages, want under %.0f", kind, allocs, messages, budget)
		}
		if allocs := testing.AllocsPerRun(3, count); allocs > budget {
			t.Errorf("counting replay of %v: %.0f allocations for %d messages, want under %.0f", kind, allocs, messages, budget)
		}
		runBytes, countBytes := allocBytes(3, run), allocBytes(3, count)
		t.Logf("%v: counting replay %d bytes, building replay %d (%.2f)", kind, countBytes, runBytes, float64(countBytes)/float64(runBytes))
		if 2*countBytes > runBytes {
			t.Errorf("%v: a counting replay allocates %d bytes, a building one %d, want at most half", kind, countBytes, runBytes)
		}
	}

	const countBudget = 32 << 10
	for _, duration := range []float64{1500, 6000} {
		cfg := sim.DefaultConfig(core.KindBHMR, 1)
		cfg.Duration, cfg.BasicMean = duration, 8
		s, err := sim.Record(cfg, &workload.Random{MeanGap: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range core.Kinds() {
			var st model.Stats
			bytes := allocBytes(3, func() {
				if st, err = s.Count(kind, nil); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%v at duration %.0f: counting replay %d bytes for %d messages", kind, duration, bytes, st.Messages)
			if bytes > countBudget {
				t.Errorf("%v at duration %.0f: a counting replay allocates %d bytes for %d messages, want at most %d whatever the message count", kind, duration, bytes, st.Messages, countBudget)
			}
		}
		s.Release()
	}
}

// allocBytes returns the bytes f allocates per call, averaged over runs
// calls after a warm-up call.
func allocBytes(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
