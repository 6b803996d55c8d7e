package rgraph

import (
	"bytes"
	"math/rand"
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
	// A valid encoding whose one in-flight entry has its receiver
	// rewritten to its sender: a self-message, which Send never records.
	self, m := zigzag()
	pe := self.flight[m]
	pe.to = pe.from
	self.flight[m] = pe
	f.Add(self.AppendBinary(nil))

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

// FuzzConsistencyOracles decodes bytes into a small pattern and holds it
// to checkConsistencyOracles. The first byte picks 2 to 4 processes;
// each of at most 32 more is one event: its low two bits choose a send
// (0, 1), a delivery of a message in flight (2) or a checkpoint (3), and
// the rest pick the process, receiver or message. Whatever is still in
// flight is delivered at the end.
func FuzzConsistencyOracles(f *testing.F) {
	// Two processes: 1 -> 0, checkpoint 0, 0 -> 1 delivered before 1
	// checkpoints is a Z-cycle through C{0,1}; with the checkpoint of 0
	// after both messages, the cycle stays inside I_{0,1} and I_{1,1}
	// and nothing is useless. The third is a causal chain over four
	// processes.
	f.Add([]byte{0, 0b101, 0b010, 0b011, 0b000, 0b010, 0b111})
	f.Add([]byte{0, 0b101, 0b010, 0b000, 0b010, 0b011, 0b111})
	f.Add([]byte{2, 0, 4, 8, 2, 2, 2, 3, 7, 11, 1, 5, 9, 2, 6, 10, 3, 7, 11})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 2 + int(data[0]%3)
		b := model.NewBuilder(n)
		var inflight []int
		for _, e := range data[1:min(len(data), 33)] {
			arg := int(e >> 2)
			switch op := e & 3; {
			case op < 2:
				from := model.ProcID(arg % n)
				to := model.ProcID((arg/n)%(n-1)+1+int(from)) % model.ProcID(n)
				inflight = append(inflight, b.Send(from, to))
			case op == 2 && len(inflight) > 0:
				k := arg % len(inflight)
				if err := b.Deliver(inflight[k]); err != nil {
					t.Fatal(err)
				}
				inflight = append(inflight[:k], inflight[k+1:]...)
			case op == 3:
				b.Checkpoint(model.ProcID(arg%n), model.KindBasic, nil)
			}
		}
		for _, h := range inflight {
			if err := b.Deliver(h); err != nil {
				t.Fatal(err)
			}
		}
		p, err := b.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		checkConsistencyOracles(t, p, rand.New(rand.NewSource(int64(len(data)))), 16)
	})
}
