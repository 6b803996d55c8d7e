package core

import (
	"fmt"
	"testing"
)

// BenchmarkProtocolArrival measures the per-delivery cost of each
// protocol's condition evaluation plus control merge at n=8.
func BenchmarkProtocolArrival(b *testing.B) {
	for _, kind := range Kinds() {
		b.Run(kind.String(), func(b *testing.B) {
			const n = 8
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
