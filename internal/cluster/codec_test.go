package cluster

import (
	"encoding/hex"
	"math"
	"testing"

	"github.com/rdt-go/rdt/internal/binenc"
	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/vclock"
)

// bhmrPiggyback returns a full BHMR piggyback for an n-process system,
// after a little traffic so the structures are not all-zero.
func bhmrPiggyback(t *testing.T, n int) core.Piggyback {
	t.Helper()
	sender, err := core.New(core.KindBHMR, 0, n, nil)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	peer, err := core.New(core.KindBHMR, 1, n, nil)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	pb0, _ := peer.OnSend(0)
	peer.TakeBasicCheckpoint()
	sender.OnArrival(1, pb0)
	pb, _ := sender.OnSend(2)
	return pb
}

// TestCodecAllocBudget pins the per-message allocation cost of the wire
// codec at n=8: encoding allocates only the output frame, and decoding
// into a reused scratch allocates only the payload copy.
func TestCodecAllocBudget(t *testing.T) {
	pb := bhmrPiggyback(t, 8)
	payload := []byte("hello")

	// Warm the encode buffer pool.
	if _, err := encodeMsg(0, 1, payload, pb); err != nil {
		t.Fatalf("encode: %v", err)
	}
	encAllocs := testing.AllocsPerRun(200, func() {
		if _, err := encodeMsg(0, 1, payload, pb); err != nil {
			t.Fatalf("encode: %v", err)
		}
	})
	// One alloc for the exact-size frame; the builder scratch is pooled.
	// (sync.Pool is emptied by the GC AllocsPerRun forces between runs, so
	// allow the refill alloc too.)
	if encAllocs > 2 {
		t.Errorf("encodeMsg allocs/op = %v, want <= 2", encAllocs)
	}

	frame, err := encodeMsg(0, 1, payload, pb)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	var scratch pbScratch
	if _, _, _, _, err := decodeMsgInto(frame, &scratch); err != nil {
		t.Fatalf("decode: %v", err)
	}
	decAllocs := testing.AllocsPerRun(200, func() {
		if _, _, _, _, err := decodeMsgInto(frame, &scratch); err != nil {
			t.Fatalf("decode: %v", err)
		}
	})
	// Only the payload copy, which handlers may retain.
	if decAllocs > 1 {
		t.Errorf("decodeMsgInto allocs/op = %v, want <= 1", decAllocs)
	}
}

// TestDecodeMsgIntoMatchesFresh verifies scratch-reusing decodes produce
// exactly what allocating decodes produce, across differently-shaped
// frames sharing one scratch.
func TestDecodeMsgIntoMatchesFresh(t *testing.T) {
	frames := [][]byte{}
	for _, build := range []func() core.Piggyback{
		func() core.Piggyback { return bhmrPiggyback(t, 8) },
		func() core.Piggyback { return bhmrPiggyback(t, 3) },
		func() core.Piggyback {
			inst, err := core.New(core.KindFDAS, 2, 5, nil)
			if err != nil {
				t.Fatalf("new: %v", err)
			}
			pb, _ := inst.OnSend(0)
			return pb
		},
		func() core.Piggyback {
			inst, err := core.New(core.KindBCS, 1, 4, nil)
			if err != nil {
				t.Fatalf("new: %v", err)
			}
			inst.TakeBasicCheckpoint()
			pb, _ := inst.OnSend(0)
			return pb
		},
	} {
		frame, err := encodeMsg(3, 9, []byte("xyz"), build())
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		frames = append(frames, frame)
	}

	var scratch pbScratch
	for i, frame := range frames {
		wFrom, wHandle, wPayload, want, wErr := decodeMsg(frame)
		gFrom, gHandle, gPayload, got, gErr := decodeMsgInto(frame, &scratch)
		if wErr != nil || gErr != nil {
			t.Fatalf("frame %d: decode errors %v / %v", i, wErr, gErr)
		}
		if wFrom != gFrom || wHandle != gHandle || string(wPayload) != string(gPayload) {
			t.Errorf("frame %d: header mismatch", i)
		}
		if !want.TDV.Equal(got.TDV) || want.SN != got.SN {
			t.Errorf("frame %d: TDV/SN mismatch: %v/%d vs %v/%d", i, want.TDV, want.SN, got.TDV, got.SN)
		}
		if want.Simple.String() != got.Simple.String() {
			t.Errorf("frame %d: simple mismatch: %v vs %v", i, want.Simple, got.Simple)
		}
		switch {
		case (want.Causal == nil) != (got.Causal == nil):
			t.Errorf("frame %d: causal presence mismatch", i)
		case want.Causal != nil && !want.Causal.Equal(got.Causal):
			t.Errorf("frame %d: causal mismatch", i)
		}
	}
}

// TestWireGolden pins the v0x03 frame bytes: the frames the v0x02
// encoder produced, minus the two trailing trace-context uvarints and
// with version byte 0x03, must be produced byte for byte and decode
// back to their fields.
func TestWireGolden(t *testing.T) {
	m := vclock.NewMatrix(3)
	for _, cell := range [][2]int{{0, 0}, {0, 2}, {1, 1}, {2, 0}, {2, 2}} {
		m.Set(cell[0], cell[1], true)
	}
	for _, c := range []struct {
		name         string
		from, handle int
		payload      string
		pb           core.Piggyback
		hex          string
	}{
		{"no piggyback", 1, 7, "hi", core.Piggyback{},
			"5203010700026869000000"},
		{"tdv+simple", 2, 300, "tdv",
			core.Piggyback{TDV: vclock.Vec{3, 0, 300, 1}, Simple: vclock.Bools{true, false, true, true}},
			"520302ac020003746476040300ac0201040d00"},
		{"causal matrix", 0, 1 << 20, "",
			core.Piggyback{SN: 5, TDV: vclock.Vec{1, 2, 70000}, Simple: vclock.Bools{false, true, false}, Causal: m},
			"5203008080400500030102f0a2040302035501"},
	} {
		t.Run(c.name, func(t *testing.T) {
			frame, err := encodeMsg(c.from, c.handle, []byte(c.payload), c.pb)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			if got := hex.EncodeToString(frame); got != c.hex {
				t.Fatalf("frame = %s, want %s", got, c.hex)
			}
			var s pbScratch
			from, handle, payload, pb, err := decodeMsgInto(frame, &s)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if from != c.from || handle != c.handle || string(payload) != c.payload {
				t.Errorf("header = %d %d %q", from, handle, payload)
			}
			if pb.SN != c.pb.SN || !pb.TDV.Equal(c.pb.TDV) || pb.Simple.String() != c.pb.Simple.String() {
				t.Errorf("piggyback = %+v, want %+v", pb, c.pb)
			}
			if (pb.Causal == nil) != (c.pb.Causal == nil) || (pb.Causal != nil && !pb.Causal.Equal(c.pb.Causal)) {
				t.Errorf("causal = %v, want %v", pb.Causal, c.pb.Causal)
			}
		})
	}
}

// TestDecodeRejectsOversizedLengths feeds length fields no frame can
// back: each must fail without allocating for it. A simple length of
// MaxInt used to overflow the packed-size arithmetic and panic. A v0x02
// frame, which carried a trace context after the piggyback, is refused
// too.
func TestDecodeRejectsOversizedLengths(t *testing.T) {
	header := []byte{wireMagic, wireVersion, 0, 0, 0, 0} // from, handle, sn, empty payload
	huge := binenc.AppendUvarint(nil, math.MaxInt)
	v2, _ := hex.DecodeString("52020107000268690000000000")
	for name, frame := range map[string][]byte{
		"tdv":          append(header[:len(header):len(header)], huge...),
		"simple":       append(append(header[:len(header):len(header)], 0), huge...),
		"matrix":       append(append(header[:len(header):len(header)], 0, 0), binenc.AppendInt(nil, maxWireMatrixDim+1)...),
		"v0x02 golden": v2,
	} {
		if _, _, _, _, err := decodeMsg(frame); err == nil {
			t.Errorf("%s frame accepted", name)
		}
	}
}
