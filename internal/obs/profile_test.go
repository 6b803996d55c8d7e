package obs

import (
	"runtime"
	"testing"
	"time"

	"github.com/rdt-go/rdt/internal/vtime"
)

// TestRuntimeGaugesSampleOnStart: the gauges are populated synchronously
// before the first tick, so a scrape right after start sees them.
func TestRuntimeGaugesSampleOnStart(t *testing.T) {
	reg := NewRegistry()
	v := vtime.NewVirtual(time.Time{})
	stop := StartRuntimeGaugesOn(v, reg, time.Second)
	defer stop()
	if _, ok := reg.Snapshot().Get("rdt_go_goroutines"); !ok {
		t.Fatal("rdt_go_goroutines not populated at start")
	}
	if v.Pending() == 0 {
		t.Fatal("sampling timer not armed before StartRuntimeGaugesOn returned")
	}
}

// TestRuntimeGaugesVirtualCadence: each virtual second drives one
// sample, so forced GC cycles become visible exactly when the test
// advances the clock — no wall-clock waiting in the cadence itself.
func TestRuntimeGaugesVirtualCadence(t *testing.T) {
	reg := NewRegistry()
	v := vtime.NewVirtual(time.Time{})
	stop := StartRuntimeGaugesOn(v, reg, time.Second)
	defer stop()
	before := reg.Snapshot().CounterValue("rdt_go_gc_cycles_total")
	runtime.GC()
	runtime.GC()
	v.Advance(time.Second) // the sample runs inside the Advance
	if got := reg.Snapshot().CounterValue("rdt_go_gc_cycles_total"); got < before+2 {
		t.Fatalf("gc cycle gauge = %d after the virtual tick, want >= %d", got, before+2)
	}
}

// TestRuntimeGaugesStopIdempotent: stop twice, no panic, timer gone.
func TestRuntimeGaugesStopIdempotent(t *testing.T) {
	reg := NewRegistry()
	v := vtime.NewVirtual(time.Time{})
	stop := StartRuntimeGaugesOn(v, reg, time.Second)
	stop()
	stop()
	if v.Pending() != 0 {
		t.Fatalf("%d timers pending after stop", v.Pending())
	}
}

// TestRuntimeGaugesNilRegistry: a nil registry is a no-op sampler.
func TestRuntimeGaugesNilRegistry(t *testing.T) {
	stop := StartRuntimeGaugesOn(nil, nil, time.Second)
	stop()
}
