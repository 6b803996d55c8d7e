package cluster

import (
	"testing"

	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/obs"
)

// benchSends times b.N sends from process 0 to process 1 of a 4-process
// BHMR cluster, quiescing every 256 messages.
func benchSends(b *testing.B, reg *obs.Registry, tracer *obs.Tracer) {
	b.Helper()
	c, err := New(Config{N: 4, Protocol: core.KindBHMR, Obs: reg, Tracer: tracer})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Stop() //nolint:errcheck // benchmark cleanup
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Node(0).Send(1, []byte("x")); err != nil {
			b.Fatal(err)
		}
		if i%256 == 0 {
			c.Quiesce()
		}
	}
	c.Quiesce()
}

// BenchmarkClusterThroughput measures end-to-end runtime message cost
// (protocol + codec + transport + trace recording).
func BenchmarkClusterThroughput(b *testing.B) { benchSends(b, nil, nil) }

// BenchmarkObsOverhead isolates the cost of the observability layer on
// the runtime's send/deliver hot path: the same workload with
// instrumentation off (the nil fast path), metrics only, and metrics
// plus event tracing. Comparing ns/op across the three sub-benchmarks
// bounds the instrumentation overhead (the metrics path is expected to
// stay within a few percent of "off").
func BenchmarkObsOverhead(b *testing.B) {
	b.Run("off", func(b *testing.B) { benchSends(b, nil, nil) })
	b.Run("metrics", func(b *testing.B) { benchSends(b, obs.NewRegistry(), nil) })
	b.Run("metrics+events", func(b *testing.B) {
		benchSends(b, obs.NewRegistry(), obs.NewTracer(obs.DefaultTracerCapacity))
	})
}
