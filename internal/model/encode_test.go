package model

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"github.com/rdt-go/rdt/internal/binenc"
)

// randomBuilder drives b through ops random events and returns the
// handles of in-flight messages, so the caller can continue the run.
func randomBuilder(t *testing.T, rng *rand.Rand, b *Builder, ops int) []int {
	t.Helper()
	var inflight []int
	n := b.N()
	for k := 0; k < ops; k++ {
		switch r := rng.Intn(10); {
		case r < 4 && n > 1:
			from := ProcID(rng.Intn(n))
			to := ProcID(rng.Intn(n - 1))
			if to >= from {
				to++
			}
			inflight = append(inflight, b.Send(from, to))
		case r < 7 && len(inflight) > 0:
			i := rng.Intn(len(inflight))
			if err := b.Deliver(inflight[i]); err != nil {
				t.Fatalf("deliver: %v", err)
			}
			inflight = append(inflight[:i], inflight[i+1:]...)
		default:
			i := ProcID(rng.Intn(n))
			kind := KindBasic
			if rng.Intn(4) == 0 {
				kind = KindForced
			}
			var tdv []int
			if rng.Intn(2) == 0 {
				tdv = make([]int, n)
				for j := range tdv {
					tdv[j] = rng.Intn(5)
				}
			}
			b.Checkpoint(i, kind, tdv)
		}
	}
	return inflight
}

func TestBuilderEncodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(5)
		b := NewBuilder(n)
		randomBuilder(t, rng, b, rng.Intn(60))

		enc := b.AppendBinary(nil)
		dec, err := DecodeBuilder(enc)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if re := dec.AppendBinary(nil); !bytes.Equal(enc, re) {
			t.Fatalf("trial %d: re-encode differs: %d vs %d bytes", trial, len(enc), len(re))
		}

		// The decoded builder must continue exactly like the original:
		// same ops applied to both end in byte-identical state and equal
		// finalized patterns.
		cont := rand.New(rand.NewSource(int64(1000 + trial)))
		contDec := rand.New(rand.NewSource(int64(1000 + trial)))
		more := randomBuilder(t, cont, b, 30)
		moreDec := randomBuilder(t, contDec, dec, 30)
		if !reflect.DeepEqual(more, moreDec) {
			t.Fatalf("trial %d: continuation handles diverged: %v vs %v", trial, more, moreDec)
		}
		if !bytes.Equal(b.AppendBinary(nil), dec.AppendBinary(nil)) {
			t.Fatalf("trial %d: state diverged after continuation", trial)
		}
		p1, l1, err1 := b.Snapshot()
		p2, l2, err2 := dec.Snapshot()
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("trial %d: snapshot errors diverged: %v vs %v", trial, err1, err2)
		}
		if err1 == nil && (!reflect.DeepEqual(p1, p2) || !reflect.DeepEqual(l1, l2)) {
			t.Fatalf("trial %d: snapshot patterns diverged", trial)
		}
	}
}

func TestDecodeBuilderRejectsCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := NewBuilder(3)
	randomBuilder(t, rng, b, 40)
	enc := b.AppendBinary(nil)
	if _, err := DecodeBuilder(enc); err != nil {
		t.Fatalf("valid encoding rejected: %v", err)
	}

	// Every truncation must be rejected, never panic.
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeBuilder(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Trailing garbage is rejected.
	if _, err := DecodeBuilder(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// Message ids the next Send could re-issue, or that two entries
	// share, are rejected: the builder keeps one entry per id.
	for _, tc := range []struct {
		name      string
		delivered [][]int // id, from, to, send interval, send seq, deliver interval, deliver seq
		inFlight  [][]int // id, from, to, send interval, send seq
		nextID    int
	}{
		{"in flight at the next id", nil, [][]int{{0, 0, 1, 1, 1}}, 0},
		{"in flight above the next id", nil, [][]int{{3, 0, 1, 1, 1}}, 2},
		{"delivered above the next id", [][]int{{1, 0, 1, 1, 1, 1, 1}}, nil, 1},
		{"in flight twice", nil, [][]int{{0, 0, 1, 1, 1}, {0, 1, 0, 1, 1}}, 1},
		{"delivered twice", [][]int{{0, 0, 1, 1, 1, 1, 1}, {0, 0, 1, 1, 1, 1, 1}}, nil, 1},
		{"delivered and in flight", [][]int{{0, 0, 1, 1, 1, 1, 1}}, [][]int{{0, 0, 1, 1, 2}}, 1},
	} {
		enc := rawBuilder(tc.delivered, tc.inFlight, tc.nextID)
		if _, err := DecodeBuilder(enc); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The same encoding with a next id above every listed one is fine,
	// and a later Send issues that next id.
	dec, err := DecodeBuilder(rawBuilder(nil, [][]int{{0, 0, 1, 1, 1}}, 1))
	if err != nil {
		t.Fatalf("valid hand-made encoding rejected: %v", err)
	}
	if id := dec.Send(0, 1); id != 1 || dec.InFlight() != 2 {
		t.Errorf("Send after decode: id %d with %d in flight, want id 1 with 2", id, dec.InFlight())
	}
	// Single-byte corruption is either rejected or yields a builder that
	// still re-encodes cleanly (a flip can land in a don't-care value,
	// e.g. a seq number); it must never panic.
	for i := range enc {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0x01
		if dec, err := DecodeBuilder(mut); err == nil {
			dec.AppendBinary(nil)
		}
	}
}

// rawBuilder encodes a two-process builder, each process at its initial
// checkpoint with sequence counters at 3, holding the given message
// entries and next id as AppendBinary lays them out.
func rawBuilder(delivered, inFlight [][]int, nextID int) []byte {
	buf := append([]byte(nil), builderMagic...)
	buf = binenc.AppendInt(buf, 2)
	buf = binenc.AppendInt(buf, 3)
	buf = binenc.AppendInt(buf, 3)
	for i := 0; i < 2; i++ {
		buf = binenc.AppendInt(buf, 1)
		buf = binenc.AppendInt(buf, 0)
		buf = append(buf, byte(KindInitial))
		buf = binenc.AppendBool(buf, false)
	}
	for _, list := range [][][]int{delivered, inFlight} {
		buf = binenc.AppendInt(buf, len(list))
		for _, m := range list {
			for _, v := range m {
				buf = binenc.AppendInt(buf, v)
			}
		}
	}
	return binenc.AppendInt(buf, nextID)
}
