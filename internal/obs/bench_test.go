package obs

import "testing"

// BenchmarkObsInstruments measures the raw per-operation cost of the
// instruments themselves, including the nil no-op path.
func BenchmarkObsInstruments(b *testing.B) {
	reg := NewRegistry()
	counter := reg.Counter("bench_counter_total")
	hist := reg.Histogram("bench_hist", nil)
	tracer := NewTracer(1024)
	b.Run("counter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			counter.Inc()
		}
	})
	b.Run("counter-nil", func(b *testing.B) {
		var nr *Registry
		c := nr.Counter("unused_total")
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("histogram", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hist.Observe(float64(i % 100))
		}
	})
	b.Run("tracer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tracer.Record(Event{Type: EventSend, Proc: i % 4})
		}
	})
}
