package rgraph

import (
	"bytes"
	"sort"
	"testing"

	"github.com/rdt-go/rdt/internal/model"
)

// FuzzDecodeIncremental feeds arbitrary bytes to the snapshot decoder.
// Whatever it accepts must behave like a checker from then on: deliver
// everything in flight, checkpoint every process, report, seal, report
// and encode without panicking, to bytes that decode again.
func FuzzDecodeIncremental(f *testing.F) {
	// zigzag sends 1 -> 0 and then 0 -> 1 across a checkpoint of process
	// 0 and returns the checker with the second message still in flight;
	// delivering it before process 1 checkpoints makes C{1,1} -> C{0,1}
	// an untrackable R-path.
	zigzag := func() (*Incremental, int) {
		inc, err := NewIncremental(2)
		if err != nil {
			f.Fatal(err)
		}
		m, _ := inc.Send(1, 0)
		if err := inc.Deliver(m); err != nil {
			f.Fatal(err)
		}
		if _, _, err := inc.Checkpoint(0); err != nil {
			f.Fatal(err)
		}
		m, _ = inc.Send(0, 1)
		return inc, m
	}
	inFlight, _ := zigzag()
	f.Add(inFlight.AppendBinary(nil))
	violating, m := zigzag()
	if err := violating.Deliver(m); err != nil {
		f.Fatal(err)
	}
	if _, _, err := violating.Checkpoint(1); err != nil {
		f.Fatal(err)
	}
	if inFlight.InFlight() != 1 || violating.RDT() {
		f.Fatalf("seed corpus lost its point: %d in flight, RDT=%v", inFlight.InFlight(), violating.RDT())
	}
	f.Add(violating.AppendBinary(nil))
	violating.Seal()
	f.Add(violating.AppendBinary(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		inc, err := DecodeIncremental(data)
		if err != nil {
			return
		}
		handles := make([]int, 0, len(inc.flight))
		for h := range inc.flight {
			handles = append(handles, h)
		}
		sort.Ints(handles)
		for _, h := range handles {
			if err := inc.Deliver(h); err != nil && !inc.Sealed() {
				t.Fatalf("deliver %d: %v", h, err)
			}
		}
		for i := 0; i < inc.N(); i++ {
			if _, _, err := inc.Checkpoint(model.ProcID(i)); err != nil && !inc.Sealed() {
				t.Fatalf("checkpoint %d: %v", i, err)
			}
		}
		inc.Report(0)
		inc.Seal()
		inc.Report(0)
		enc := inc.AppendBinary(nil)
		again, err := DecodeIncremental(enc)
		if err != nil {
			t.Fatalf("re-encoded checker does not decode: %v", err)
		}
		if !bytes.Equal(again.AppendBinary(nil), enc) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}
