package model

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// finalizeOracle is Finalize as it was before it trusted the builder's
// counters: close every event-bearing interval, copy the pattern, then run
// the full Validate over it.
func finalizeOracle(b *Builder) (*Pattern, error) {
	if b.inFlight > 0 {
		return nil, fmt.Errorf("finalize: %d messages still in flight", b.inFlight)
	}
	for i := 0; i < b.n; i++ {
		if b.EventsSinceCheckpoint(ProcID(i)) > 0 {
			b.Checkpoint(ProcID(i), KindFinal, nil)
		}
	}
	msgs := make([]Message, 0, len(b.msgs)-b.lost)
	for _, m := range b.msgs {
		if m.DeliverSeq != seqLost {
			msgs = append(msgs, m)
		}
	}
	ckpts := make([][]Checkpoint, b.n)
	for i, c := range b.ckpts {
		ckpts[i] = append([]Checkpoint(nil), c...)
	}
	p := &Pattern{N: b.n, Checkpoints: ckpts, Messages: msgs}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("finalize: %w", err)
	}
	return p, nil
}

// agreeWithOracle requires what Finalize or FinalizeLossy returned for b
// to be what finalizeOracle returns for b's state after the call: the
// call already closed every interval and dropped what it drops, so the
// oracle sees the state the pattern was copied from.
func agreeWithOracle(t *testing.T, op string, b *Builder, p *Pattern, err error) {
	t.Helper()
	want, wantErr := finalizeOracle(b)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, oracle %v", op, err, wantErr)
	}
	if err != nil {
		return
	}
	if verr := p.Validate(); verr != nil {
		t.Fatalf("%s: finalized pattern fails Validate: %v", op, verr)
	}
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("%s: pattern differs from the oracle's", op)
	}
}

// Builder operations of FuzzBuilderFinalize, one per input byte (mod
// opCount); their operands are the bytes that follow.
const (
	opSend = iota
	opDeliver
	opCheckpoint
	opSnapshot
	opClone
	opFinalizeLossy
	opFinalize
	opDecodeMutated
	opDecodeRest
	opCount
)

// FuzzBuilderFinalize decodes its input into a builder op stream — n
// (including 0), sends (self-sends too), deliveries (unknown handles
// too), checkpoints with TDVs of any length, Snapshot, Clone,
// FinalizeLossy, Finalize, and DecodeBuilder of mutated AppendBinary
// bytes or of the rest of the input — and requires every pattern Finalize
// and FinalizeLossy return to pass the full Validate, with the error (or
// its absence) of finalizeOracle.
func FuzzBuilderFinalize(f *testing.F) {
	f.Add([]byte{3, opSend, 0, 1, opDeliver, 0, opCheckpoint, 1, 4, 1, 2, 3, opFinalize})
	f.Add([]byte{2, opSend, 1, 1, opDeliver, 0, opFinalize, opSend, 0, 1, opSnapshot, opFinalizeLossy})
	f.Add([]byte{0, opSend, 0, 0, opCheckpoint, 0, 0, opFinalize})
	f.Add([]byte{4, opSend, 0, 1, opSend, 2, 3, opDeliver, 3, opClone, opCheckpoint, 2, 2, opDecodeMutated, 1, 0, 9, 1, opSnapshot})
	f.Add([]byte{3, opCheckpoint, 2, 7, 1, 2, 3, 4, 5, opSend, 2, 0, opDeliver, 2, opFinalizeLossy, opSend, 0, 2})
	// A send at the seq of C{0,0}: DecodeBuilder must refuse it, since
	// Finalize no longer would.
	f.Add(append([]byte{2, opDecodeRest}, rawBuilder([][]int{{0, 0, 1, 1, 0, 1, 1}}, nil, 1)...))
	f.Add(append([]byte{2, opDecodeRest}, rawBuilder(nil, [][]int{{0, 0, 1, 1, 1}}, 1)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0])
			data = data[1:]
			return v
		}
		b := NewBuilder(next() % 6)
		for len(data) > 0 {
			n := b.N()
			switch next() % opCount {
			case opSend:
				if n > 0 {
					b.Send(ProcID(next()%n), ProcID(next()%n))
				}
			case opDeliver:
				h := next()%(b.NextMessageID()+3) - 2
				before := b.InFlight()
				if err := b.Deliver(h); (err == nil) != (b.InFlight() == before-1) {
					t.Fatalf("deliver %d: error %v with %d -> %d in flight", h, err, before, b.InFlight())
				}
			case opCheckpoint:
				if n == 0 {
					break
				}
				i, kind := ProcID(next()%n), KindInitial+CheckpointKind(next()%4)
				var tdv []int
				if l := next() % (n + 3); l > 0 {
					tdv = make([]int, l-1)
					for k := range tdv {
						tdv[k] = next()
					}
				}
				b.Checkpoint(i, kind, tdv)
			case opSnapshot:
				before := b.AppendBinary(nil)
				c := b.Clone()
				p, lost, err := b.Snapshot()
				if !bytes.Equal(before, b.AppendBinary(nil)) {
					t.Fatal("Snapshot changed the builder")
				}
				cp, clost, cerr := c.FinalizeLossy()
				if fmt.Sprint(err) != fmt.Sprint(cerr) || !reflect.DeepEqual(p, cp) || !reflect.DeepEqual(lost, clost) {
					t.Fatalf("Snapshot differs from FinalizeLossy of a clone: %v vs %v", err, cerr)
				}
				agreeWithOracle(t, "snapshot", c, cp, cerr)
			case opClone:
				c := b.Clone()
				if !bytes.Equal(b.AppendBinary(nil), c.AppendBinary(nil)) {
					t.Fatal("Clone differs from the builder")
				}
				b = c
			case opFinalizeLossy:
				p, _, err := b.FinalizeLossy()
				agreeWithOracle(t, "finalize lossy", b, p, err)
			case opFinalize:
				p, err := b.Finalize()
				agreeWithOracle(t, "finalize", b, p, err)
			case opDecodeMutated:
				enc := b.AppendBinary(nil)
				for k := next() % 4; k > 0; k-- {
					pos := (next()<<8 | next()) % len(enc)
					enc[pos] ^= byte(next())
				}
				if dec, err := DecodeBuilder(enc); err == nil {
					b = dec
				}
			case opDecodeRest:
				dec, err := DecodeBuilder(data)
				data = nil
				if err == nil {
					b = dec
				}
			}
		}
		p, _, err := b.FinalizeLossy()
		agreeWithOracle(t, "final", b, p, err)
	})
}

// TestDecodeBuilderRefusesUnrecordedState corrupts a recorded builder in
// one way per invariant its counters keep and requires DecodeBuilder to
// refuse the encoding. Each such state fails finalizeOracle, the full
// Validate that Finalize ran before it trusted the counters: the refusal
// moved to the decoder, it did not appear.
func TestDecodeBuilderRefusesUnrecordedState(t *testing.T) {
	// The run: P0 sends m0 and m1 to P1 in I_{0,1} and checkpoints; P1
	// delivers m0; m1 stays in flight.
	record := func() *Builder {
		b := NewBuilder(2)
		b.Send(0, 1)
		b.Send(0, 1)
		b.Checkpoint(0, KindBasic, nil)
		if err := b.Deliver(0); err != nil {
			t.Fatal(err)
		}
		return b
	}
	if _, err := DecodeBuilder(record().AppendBinary(nil)); err != nil {
		t.Fatalf("recorded state refused: %v", err)
	}
	for _, tc := range []struct {
		name    string
		corrupt func(b *Builder)
	}{
		{"send at the seq of C{0,0}", func(b *Builder) { b.msgs[0].SendSeq = 0 }},
		{"two sends with one seq", func(b *Builder) { b.msgs[1].SendSeq = b.msgs[0].SendSeq }},
		{"send at the seq of the checkpoint closing it", func(b *Builder) { b.msgs[0].SendSeq = b.ckpts[0][1].Seq }},
		{"checkpoint seqs not increasing", func(b *Builder) { b.ckpts[0][1].Seq = 0 }},
		{"first checkpoint not initial", func(b *Builder) { b.ckpts[1][0].Kind = KindBasic }},
		{"delivery outside its interval", func(b *Builder) { b.msgs[0].DeliverInterval = 2 }},
		{"in-flight send outside its interval", func(b *Builder) { b.msgs[1].SendInterval = 2 }},
		{"seq counter not beyond a delivery", func(b *Builder) { b.seq[1] = b.msgs[0].DeliverSeq }},
		{"seq counter not beyond a checkpoint", func(b *Builder) { b.seq[0] = b.ckpts[0][1].Seq }},
	} {
		b := record()
		tc.corrupt(b)
		if _, err := DecodeBuilder(b.AppendBinary(nil)); err == nil {
			t.Errorf("%s: decoded", tc.name)
		}
		// The run goes on: m1 is delivered and every process
		// checkpoints, which shows a seq counter's damage.
		if err := b.Deliver(1); err != nil {
			t.Fatal(err)
		}
		b.Checkpoint(0, KindBasic, nil)
		b.Checkpoint(1, KindBasic, nil)
		if _, err := finalizeOracle(b); err == nil {
			t.Errorf("%s: the full Validate accepts it, so refusing it at decode is new", tc.name)
		}
	}
	if _, err := DecodeBuilder(rawBuilder([][]int{{0, 0, 1, 1, 0, 1, 1}}, nil, 1)); err == nil {
		t.Error("hand-made send at the seq of C{0,0}: decoded")
	}
}

// BenchmarkFinalize finalizes a closed paper-scale run: 8 processes,
// about 8 k messages, a checkpoint every ~25 events of a process, every
// checkpoint past the initial ones with a TDV, as a replay of the grid
// records them.
func BenchmarkFinalize(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 8
	bl := NewBuilder(n)
	tdv := make([]int, n)
	var inflight []int
	for s := 0; s < 17000; s++ {
		switch r := rng.Float64(); {
		case r < 0.48:
			from := ProcID(rng.Intn(n))
			inflight = append(inflight, bl.Send(from, (from+1+ProcID(rng.Intn(n-1)))%n))
		case r < 0.96 && len(inflight) > 0:
			k := rng.Intn(len(inflight))
			if err := bl.Deliver(inflight[k]); err != nil {
				b.Fatal(err)
			}
			inflight[k] = inflight[len(inflight)-1]
			inflight = inflight[:len(inflight)-1]
		default:
			bl.Checkpoint(ProcID(rng.Intn(n)), KindBasic, tdv)
		}
	}
	for _, h := range inflight {
		if err := bl.Deliver(h); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := bl.Finalize(); err != nil { // closes the open intervals
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bl.Finalize(); err != nil {
			b.Fatal(err)
		}
	}
}
