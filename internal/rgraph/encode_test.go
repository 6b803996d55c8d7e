package rgraph

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/rdt-go/rdt/internal/model"
)

// driveIncremental applies ops random events to inc. The same rng seed
// produces the same op sequence, so two checkers in the same state can
// be driven in lockstep.
func driveIncremental(t *testing.T, rng *rand.Rand, inc *Incremental, ops int) {
	t.Helper()
	n := inc.N()
	var inflight []int
	for k := 0; k < ops; k++ {
		switch r := rng.Intn(10); {
		case r < 4 && n > 1:
			from := model.ProcID(rng.Intn(n))
			to := model.ProcID(rng.Intn(n - 1))
			if to >= from {
				to++
			}
			h, err := inc.Send(from, to)
			if err != nil {
				t.Fatalf("send: %v", err)
			}
			inflight = append(inflight, h)
		case r < 7 && len(inflight) > 0:
			i := rng.Intn(len(inflight))
			if err := inc.Deliver(inflight[i]); err != nil {
				t.Fatalf("deliver: %v", err)
			}
			inflight = append(inflight[:i], inflight[i+1:]...)
		default:
			if _, _, err := inc.Checkpoint(model.ProcID(rng.Intn(n))); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
		}
	}
}

// TestIncrementalEncodeRoundTrip encodes a checker mid-run, decodes it,
// and verifies the decoded checker is indistinguishable: identical
// re-encoding, identical violation accounting (recomputed during decode,
// not stored), and identical behavior when both consume the same
// remaining events through to Seal.
func TestIncrementalEncodeRoundTrip(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		n := 1 + rng.Intn(5)
		inc, err := NewIncremental(n)
		if err != nil {
			t.Fatal(err)
		}
		driveIncremental(t, rng, inc, rng.Intn(80))

		enc := inc.AppendBinary(nil)
		dec, err := DecodeIncremental(enc)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if re := dec.AppendBinary(nil); !bytes.Equal(enc, re) {
			t.Fatalf("trial %d: re-encode differs: %d vs %d bytes", trial, len(enc), len(re))
		}
		if dec.Violations() != inc.Violations() {
			t.Fatalf("trial %d: violations %d, want %d", trial, dec.Violations(), inc.Violations())
		}
		if !reflect.DeepEqual(dec.FirstViolation(), inc.FirstViolation()) {
			t.Fatalf("trial %d: first violation %+v, want %+v",
				trial, dec.FirstViolation(), inc.FirstViolation())
		}
		if !reflect.DeepEqual(dec.Report(0), inc.Report(0)) {
			t.Fatalf("trial %d: reports differ", trial)
		}

		// Lockstep continuation: same events into both checkers, then
		// Seal; every observable must match.
		seed := int64(5000 + trial)
		driveIncremental(t, rand.New(rand.NewSource(seed)), inc, 40)
		driveIncremental(t, rand.New(rand.NewSource(seed)), dec, 40)
		inc.Seal()
		dec.Seal()
		if !bytes.Equal(inc.AppendBinary(nil), dec.AppendBinary(nil)) {
			t.Fatalf("trial %d: state diverged after continuation", trial)
		}
		if !reflect.DeepEqual(dec.Report(0), inc.Report(0)) {
			t.Fatalf("trial %d: sealed reports differ", trial)
		}
		if dec.Violations() != inc.Violations() || dec.NumCheckpoints() != inc.NumCheckpoints() {
			t.Fatalf("trial %d: sealed accounting differs", trial)
		}
		for i := 0; i < n; i++ {
			for x := 0; x <= inc.NextIndex(model.ProcID(i)); x++ {
				id := model.CkptID{Proc: model.ProcID(i), Index: x}
				if !reflect.DeepEqual(inc.TDVAt(id), dec.TDVAt(id)) {
					t.Fatalf("trial %d: TDVAt(%v) differs", trial, id)
				}
			}
		}
	}
}

// TestIncrementalEncodeSealed covers the sealed checker: decoding one
// yields a checker that is still sealed and still rejects mutations.
func TestIncrementalEncodeSealed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inc, err := NewIncremental(3)
	if err != nil {
		t.Fatal(err)
	}
	driveIncremental(t, rng, inc, 50)
	inc.Seal()
	dec, err := DecodeIncremental(inc.AppendBinary(nil))
	if err != nil {
		t.Fatalf("decode sealed: %v", err)
	}
	if !dec.Sealed() {
		t.Fatal("decoded checker not sealed")
	}
	if _, err := dec.Send(0, 1); err == nil {
		t.Fatal("sealed checker accepted a send")
	}
	if !reflect.DeepEqual(dec.Report(0), inc.Report(0)) {
		t.Fatal("sealed reports differ")
	}
}

func TestDecodeIncrementalRejectsCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	inc, err := NewIncremental(4)
	if err != nil {
		t.Fatal(err)
	}
	driveIncremental(t, rng, inc, 60)
	enc := inc.AppendBinary(nil)
	if _, err := DecodeIncremental(enc); err != nil {
		t.Fatalf("valid encoding rejected: %v", err)
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeIncremental(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := DecodeIncremental(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// An in-flight entry naming a send interval its sender has not
	// reached (Deliver indexes the node table with it) or carrying a
	// handle Send has yet to hand out, and an event count one delivery
	// short of wrapping negative.
	for name, corrupt := range map[string]func(c *Incremental, h int){
		"send interval past the open one": func(c *Incremental, h int) {
			pe := c.flight[h]
			pe.sendInterval = c.nextIndex[pe.from] + 1
			c.flight[h] = pe
		},
		"handle never handed out": func(c *Incremental, h int) {
			c.flight[c.nextMsg] = c.flight[h]
			delete(c.flight, h)
		},
		"event count near overflow": func(c *Incremental, h int) {
			c.events[c.flight[h].to] = math.MaxInt
		},
	} {
		c, err := DecodeIncremental(enc)
		if err != nil {
			t.Fatal(err)
		}
		if c.InFlight() == 0 {
			t.Fatal("fixture has nothing in flight")
		}
		for h := range c.flight {
			corrupt(c, h)
			break
		}
		if _, err := DecodeIncremental(c.AppendBinary(nil)); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
	// Bit flips must never panic; when they decode, the result must
	// still re-encode (the structural invariants held).
	for i := range enc {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0x01
		if dec, err := DecodeIncremental(mut); err == nil {
			dec.AppendBinary(nil)
		}
	}
}
