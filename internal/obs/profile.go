package obs

import (
	"net/http"
	"net/http/pprof"
	"runtime/metrics"
	"time"

	"github.com/rdt-go/rdt/internal/vtime"
)

// runtimeSamples are the runtime/metrics series mirrored into gauges.
var runtimeSamples = []struct {
	name   string // runtime/metrics key
	metric string // registry gauge name
}{
	{"/sched/goroutines:goroutines", "rdt_go_goroutines"},
	{"/memory/classes/heap/objects:bytes", "rdt_go_heap_objects_bytes"},
	{"/gc/cycles/total:gc-cycles", "rdt_go_gc_cycles_total"},
	{"/gc/pauses:seconds", "rdt_go_gc_pause_us_total"},
}

// sampleRuntime reads the runtime/metrics samples once into the gauges.
func sampleRuntime(reg *Registry, samples []metrics.Sample) {
	metrics.Read(samples)
	for i := range samples {
		g := reg.Gauge(runtimeSamples[i].metric)
		switch samples[i].Value.Kind() {
		case metrics.KindUint64:
			g.Set(int64(samples[i].Value.Uint64()))
		case metrics.KindFloat64Histogram:
			// GC pause distribution: export the cumulative pause time.
			h := samples[i].Value.Float64Histogram()
			var total float64
			for b, count := range h.Counts {
				// Bucket midpoint; the edges slice has len(Counts)+1 entries.
				lo, hi := h.Buckets[b], h.Buckets[b+1]
				if lo < 0 {
					lo = 0
				}
				mid := (lo + hi) / 2
				total += mid * float64(count)
			}
			g.Set(int64(total * 1e6))
		}
	}
}

// StartRuntimeGaugesOn samples goroutine count, heap size, and GC
// activity from runtime/metrics into the registry every interval of
// clock (nil for the real one) until the returned stop function is
// called; a nil registry samples nothing. A vtime.Virtual makes the
// sampling cadence part of a deterministic schedule, each sample
// running inside the Advance that reaches it. The gauges:
//
//	rdt_go_goroutines          live goroutines
//	rdt_go_heap_objects_bytes  bytes of live heap objects
//	rdt_go_gc_cycles_total     completed GC cycles
//	rdt_go_gc_pause_us_total   estimated cumulative GC pause (µs)
func StartRuntimeGaugesOn(clock vtime.Clock, reg *Registry, interval time.Duration) (stop func()) {
	if reg == nil {
		return func() {}
	}
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i := range samples {
		samples[i].Name = runtimeSamples[i].name
	}
	sampleRuntime(reg, samples) // populate before the first tick
	return vtime.Repeat(vtime.Or(clock), interval, func() time.Duration {
		sampleRuntime(reg, samples)
		return interval
	}).Stop
}

// mountPprof mounts the net/http/pprof handlers on the mux under
// /debug/pprof/, the standard layout `go tool pprof` expects.
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
