package core

import (
	"fmt"
	"testing"
)

// protocolWidths is the process-count axis of the per-event protocol
// benchmarks; at n = 65 a causal-matrix row spans two words.
var protocolWidths = []int{8, 32, 65, 128}

// BenchmarkProtocolArrival measures the per-delivery cost of each
// protocol's condition evaluation plus control merge at n = 8, 32, 65
// and 128.
func BenchmarkProtocolArrival(b *testing.B) {
	for _, kind := range Kinds() {
		for _, n := range protocolWidths {
			b.Run(fmt.Sprintf("%v/n=%d", kind, n), func(b *testing.B) {
				sender, err := New(kind, 1, n, nil)
				if err != nil {
					b.Fatal(err)
				}
				receiver, err := New(kind, 0, n, nil)
				if err != nil {
					b.Fatal(err)
				}
				pb, _ := sender.OnSend(0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					receiver.OnArrival(1, pb)
				}
			})
		}
	}
}

// BenchmarkProtocolSend measures the per-send cost of each protocol at
// n = 8, 32, 65 and 128 when the control state changed since the previous
// send, as it has after every delivery: sent_to plus a fresh piggyback
// snapshot (the vector and, for BHMR, the simple array and causal matrix).
func BenchmarkProtocolSend(b *testing.B) {
	for _, kind := range Kinds() {
		for _, n := range protocolWidths {
			b.Run(fmt.Sprintf("%v/n=%d", kind, n), func(b *testing.B) {
				inst, err := New(kind, 0, n, nil)
				if err != nil {
					b.Fatal(err)
				}
				changed := inst.(interface{ invalidateSnapshot() })
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					changed.invalidateSnapshot()
					inst.OnSend(1 + i%(n-1))
				}
			})
		}
	}
}

// BenchmarkTablePiggybackSize (E5, control-information cost) measures the
// per-message protocol cost that the size table summarizes: building the
// piggyback on send (the dominant per-message work of each protocol),
// with the wire size as metric.
func BenchmarkTablePiggybackSize(b *testing.B) {
	for _, kind := range []Kind{KindFDAS, KindBHMRCausalOnly, KindBHMR} {
		for _, n := range []int{8, 32} {
			b.Run(fmt.Sprintf("%v/n=%d", kind, n), func(b *testing.B) {
				inst, err := New(kind, 0, n, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(inst.WireSize()), "wire-bytes")
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pb, _ := inst.OnSend(1)
					_ = pb
				}
			})
		}
	}
}
