package rgraph

import (
	"bytes"
	"math/rand"
	"slices"
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

// FuzzIncrementalOracle decodes bytes into an event stream and runs it
// through the lockstep harness, so after every event the reach counters
// meet the search close used to run, the interval vectors meet the
// bitset closure and Report meets the binary-search one. Beside it runs
// a shadow of every running vector that clones each send's stamp: a
// delivery must leave the checker's vector equal to the shadow's,
// whichever stamp-slab slot the message's stamp was put in. The first
// byte picks 2 to 6 processes; each of at most 96 more is one event: its
// low two bits choose a send (0, 1), a delivery of a message in flight
// (2) or a checkpoint (3), and the rest pick the process, receiver or
// message. The run ends with everything in flight delivered, sealed and
// held to the batch checker.
func FuzzIncrementalOracle(f *testing.F) {
	f.Add([]byte{0, 0b101, 0b010, 0b011, 0b000, 0b010, 0b111})
	// Three processes: a send, its delivery, a second send that takes the
	// freed slot, a checkpoint, and its delivery.
	f.Add([]byte{1, 0b0100, 0b0010, 0b1000, 0b0011, 0b0110, 0b0010})
	f.Add([]byte{4, 0, 4, 8, 12, 16, 2, 2, 3, 7, 1, 5, 9, 2, 6, 10, 2, 3, 11, 15, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 2 + int(data[0]%5)
		l := newLockstep(t, n, &closureOracle{})
		shadow := make([][]int, n) // running vectors, stamps cloned
		for i := range shadow {
			shadow[i] = make([]int, n)
			shadow[i][i] = 1
		}
		type sent struct {
			to    model.ProcID
			stamp []int
		}
		stamps := make(map[int]sent) // by builder handle
		for _, e := range data[1:min(len(data), 97)] {
			arg := int(e >> 2)
			switch op := e & 3; {
			case op < 2:
				from := model.ProcID(arg % n)
				to := model.ProcID((arg/n)%(n-1)+1+int(from)) % model.ProcID(n)
				l.send(from, to)
				stamps[l.inFlight[len(l.inFlight)-1]] = sent{to, slices.Clone(shadow[from])}
			case op == 2 && len(l.inFlight) > 0:
				k := arg % len(l.inFlight)
				m := stamps[l.inFlight[k]]
				delete(stamps, l.inFlight[k])
				l.deliver(k)
				for x, v := range m.stamp {
					shadow[m.to][x] = max(shadow[m.to][x], v)
				}
			case op == 3:
				i := model.ProcID(arg % n)
				l.checkpoint(i)
				shadow[i][i]++
			default:
				continue
			}
			for i := range shadow {
				if got := l.inc.Current(model.ProcID(i)); !slices.Equal(got, shadow[i]) {
					t.Fatalf("running vector of process %d is %v, the cloned-stamp shadow says %v", i, got, shadow[i])
				}
			}
		}
		l.finish(rand.New(rand.NewSource(int64(len(data)))))
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
