package sim_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/sim"
	"github.com/rdt-go/rdt/internal/trace"
	"github.com/rdt-go/rdt/internal/workload"
)

func send(from, to, slot int32) sim.Op {
	return sim.Op{Kind: sim.OpSend, Proc: from, Peer: to, Slot: slot}
}

func arrive(to, from, slot int32) sim.Op {
	return sim.Op{Kind: sim.OpArrive, Proc: to, Peer: from, Slot: slot}
}

func basic(proc int32) sim.Op { return sim.Op{Kind: sim.OpBasic, Proc: proc} }

// TestNewScheduleRefusesMalformedTapes: NewSchedule refuses every tape
// Record could not have recorded, and says why.
func TestNewScheduleRefusesMalformedTapes(t *testing.T) {
	cases := []struct {
		name string
		n    int
		ops  []sim.Op
		want string
	}{
		{"one process", 1, nil, "need at least 2 processes, have 1"},
		{"process out of range", 2, []sim.Op{basic(2)}, "process 2 out of range"},
		{"negative process", 2, []sim.Op{send(-1, 1, 0), arrive(1, -1, 0)}, "process -1 out of range"},
		{"peer out of range", 2, []sim.Op{send(0, 2, 0), arrive(2, 0, 0)}, "peer 2 out of range"},
		{"self-send", 2, []sim.Op{send(1, 1, 0), arrive(1, 1, 0)}, "P1 sends to itself"},
		{"slot out of range", 2, []sim.Op{send(0, 1, 2), arrive(1, 0, 2)}, "slot 2 out of range"},
		{"slot taken again", 2, []sim.Op{send(0, 1, 0), send(1, 0, 0), arrive(1, 0, 0), arrive(0, 1, 0)},
			"slot 0 taken again before the arrival of op 0's message"},
		{"arrival in empty slot", 2, []sim.Op{send(0, 1, 0), arrive(1, 0, 1)}, "arrival in empty slot 1"},
		{"arrival after arrival", 2, []sim.Op{send(0, 1, 0), arrive(1, 0, 0), arrive(1, 0, 0)}, "op 2: arrival in empty slot 0"},
		{"swapped endpoints", 2, []sim.Op{send(0, 1, 0), arrive(0, 1, 0)}, "arrival P1->P0 of op 0's message P0->P1"},
		{"wrong receiver", 3, []sim.Op{send(0, 1, 0), arrive(2, 0, 0)}, "arrival P0->P2 of op 0's message P0->P1"},
		{"wrong sender", 3, []sim.Op{send(0, 1, 0), arrive(1, 2, 0)}, "arrival P2->P1 of op 0's message P0->P1"},
		{"zero kind", 2, []sim.Op{{Proc: 0}}, "unknown kind 0"},
		{"unknown kind", 2, []sim.Op{{Kind: sim.OpBasic + 1}}, "unknown kind 4"},
		{"send never arrives", 2, []sim.Op{send(0, 1, 0), send(1, 0, 1), arrive(0, 1, 1)}, "1 sends never arrive"},
	}
	for _, c := range cases {
		s, err := sim.NewSchedule(c.n, c.ops)
		if err == nil {
			s.Release()
			t.Errorf("%s: tape %v accepted", c.name, c.ops)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q, want it to say %q", c.name, err, c.want)
		}
	}
	// A slot taken again after its arrival is how Record reuses slots.
	s, err := sim.NewSchedule(2, []sim.Op{send(0, 1, 0), arrive(1, 0, 0), basic(1), send(1, 0, 0), arrive(0, 1, 0)})
	if err != nil {
		t.Fatalf("well-formed tape refused: %v", err)
	}
	s.Release()
}

// TestNewScheduleReplaysRecordedTapes: every tape Record writes is one
// NewSchedule accepts, and its replay under every protocol saves the
// same trace, byte for byte, as the recorded schedule's.
func TestNewScheduleReplaysRecordedTapes(t *testing.T) {
	save := func(res *sim.Result) []byte {
		var buf bytes.Buffer
		if err := trace.Save(&buf, res.Pattern); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, env := range []string{"random", "groups", "client-server"} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/%d", env, seed), func(t *testing.T) {
				t.Parallel()
				w, err := workload.ByName(env)
				if err != nil {
					t.Fatal(err)
				}
				cfg := sim.DefaultConfig(core.KindNone, seed)
				cfg.Duration = 300
				rec, err := sim.Record(cfg, w)
				if err != nil {
					t.Fatal(err)
				}
				defer rec.Release()
				s, err := sim.NewSchedule(cfg.N, sim.Tape(rec))
				if err != nil {
					t.Fatalf("recorded tape refused: %v", err)
				}
				defer s.Release()
				for _, kind := range core.Kinds() {
					want, err := rec.Run(kind, nil)
					if err != nil {
						t.Fatal(err)
					}
					got, err := s.Run(kind, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(save(got), save(want)) {
						t.Errorf("%v: the tape's replay saves a different trace than the recorded schedule's", kind)
					}
				}
			})
		}
	}
}

// FuzzNewSchedule feeds arbitrary tapes to NewSchedule: the first byte
// picks n, and every four bytes after it are one op (kind, process,
// peer, slot; the last three as signed bytes). A tape is either refused,
// or it replays under every protocol without a panic into a pattern that
// passes the full Validate.
func FuzzNewSchedule(f *testing.F) {
	f.Add([]byte{2, 1, 0, 1, 0, 2, 1, 0, 0, 3, 1, 0, 0})
	f.Add([]byte{3, 1, 0, 1, 0, 1, 1, 2, 1, 2, 1, 0, 0, 3, 1, 0, 0, 1, 1, 2, 0, 2, 2, 1, 1, 2, 2, 1, 0, 3, 2, 0, 0})
	f.Add([]byte{2, 1, 0, 1, 0, 1, 1, 0, 0, 2, 1, 0, 0, 2, 0, 1, 0})
	f.Add([]byte{4, 3, 0, 0, 0, 1, 3, 0, 0, 2, 0, 3, 0, 3, 3, 0, 0, 1, 0, 3, 0, 2, 3, 0, 0})
	f.Add([]byte{1, 3, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]) % 8
		var ops []sim.Op
		for b := data[1:]; len(b) >= 4; b = b[4:] {
			ops = append(ops, sim.Op{
				Kind: sim.OpKind(b[0] % 5),
				Proc: int32(int8(b[1])), Peer: int32(int8(b[2])), Slot: int32(int8(b[3])),
			})
		}
		s, err := sim.NewSchedule(n, ops)
		if err != nil {
			return
		}
		defer s.Release()
		for _, kind := range core.Kinds() {
			res, err := s.Run(kind, nil)
			if err != nil {
				t.Fatalf("%v: accepted tape %v: %v", kind, ops, err)
			}
			if err := res.Pattern.Validate(); err != nil {
				t.Fatalf("%v: accepted tape %v: invalid pattern: %v", kind, ops, err)
			}
		}
	})
}
