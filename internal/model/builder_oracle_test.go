package model

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/rdt-go/rdt/internal/binenc"
)

// mapBuilder is the builder as it was before messages were kept in one
// table indexed by id: in-flight sends in a map, delivered messages in
// delivery order, sorted by id at Finalize. It is the oracle of
// TestBuilderMatchesMapOracle.
type mapBuilder struct {
	n      int
	seq    []int
	ckpts  [][]Checkpoint
	msgs   []Message
	sent   map[int]*pendingSend
	nextID int
}

type pendingSend struct {
	from         ProcID
	to           ProcID
	sendInterval int
	sendSeq      int
}

func newMapBuilder(n int) *mapBuilder {
	b := &mapBuilder{
		n:     n,
		seq:   make([]int, n),
		ckpts: make([][]Checkpoint, n),
		sent:  make(map[int]*pendingSend),
	}
	for i := 0; i < n; i++ {
		b.ckpts[i] = []Checkpoint{{Proc: ProcID(i), Kind: KindInitial, Seq: b.nextSeq(ProcID(i))}}
	}
	return b
}

func (b *mapBuilder) NextIndex(i ProcID) int { return len(b.ckpts[i]) }

func (b *mapBuilder) EventsSinceCheckpoint(i ProcID) int {
	last := b.ckpts[i][len(b.ckpts[i])-1]
	return b.seq[i] - last.Seq - 1
}

func (b *mapBuilder) Checkpoint(i ProcID, kind CheckpointKind, tdv []int) CkptID {
	var tdvCopy []int
	if tdv != nil {
		tdvCopy = make([]int, len(tdv))
		copy(tdvCopy, tdv)
	}
	ck := Checkpoint{Proc: i, Index: len(b.ckpts[i]), Seq: b.nextSeq(i), Kind: kind, TDV: tdvCopy}
	b.ckpts[i] = append(b.ckpts[i], ck)
	return ck.ID()
}

func (b *mapBuilder) Send(from, to ProcID) int {
	id := b.nextID
	b.nextID++
	b.sent[id] = &pendingSend{from: from, to: to, sendInterval: b.NextIndex(from), sendSeq: b.nextSeq(from)}
	return id
}

func (b *mapBuilder) Deliver(msg int) error {
	ps, ok := b.sent[msg]
	if !ok {
		return fmt.Errorf("deliver: unknown or already delivered message handle %d", msg)
	}
	delete(b.sent, msg)
	b.msgs = append(b.msgs, Message{
		ID: msg, From: ps.from, To: ps.to,
		SendInterval: ps.sendInterval, SendSeq: ps.sendSeq,
		DeliverInterval: b.NextIndex(ps.to), DeliverSeq: b.nextSeq(ps.to),
	})
	return nil
}

func (b *mapBuilder) InFlight() int { return len(b.sent) }

func (b *mapBuilder) Finalize() (*Pattern, error) {
	if len(b.sent) > 0 {
		return nil, fmt.Errorf("finalize: %d messages still in flight", len(b.sent))
	}
	for i := 0; i < b.n; i++ {
		if b.EventsSinceCheckpoint(ProcID(i)) > 0 {
			b.Checkpoint(ProcID(i), KindFinal, nil)
		}
	}
	msgs := make([]Message, len(b.msgs))
	copy(msgs, b.msgs)
	sort.Slice(msgs, func(a, c int) bool { return msgs[a].ID < msgs[c].ID })
	ckpts := make([][]Checkpoint, b.n)
	for i := range b.ckpts {
		ckpts[i] = make([]Checkpoint, len(b.ckpts[i]))
		copy(ckpts[i], b.ckpts[i])
	}
	p := &Pattern{N: b.n, Checkpoints: ckpts, Messages: msgs}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("finalize: %w", err)
	}
	return p, nil
}

func (b *mapBuilder) FinalizeLossy() (*Pattern, []LostMessage, error) {
	var lost []LostMessage
	for id, ps := range b.sent {
		lost = append(lost, LostMessage{ID: id, From: ps.from, To: ps.to, SendInterval: ps.sendInterval})
	}
	sort.Slice(lost, func(a, c int) bool { return lost[a].ID < lost[c].ID })
	b.sent = make(map[int]*pendingSend)
	p, err := b.Finalize()
	if err != nil {
		return nil, nil, err
	}
	return p, lost, nil
}

func (b *mapBuilder) Clone() *mapBuilder {
	nb := &mapBuilder{
		n:      b.n,
		seq:    append([]int(nil), b.seq...),
		ckpts:  make([][]Checkpoint, b.n),
		msgs:   append([]Message(nil), b.msgs...),
		sent:   make(map[int]*pendingSend, len(b.sent)),
		nextID: b.nextID,
	}
	for i := range b.ckpts {
		nb.ckpts[i] = append([]Checkpoint(nil), b.ckpts[i]...)
	}
	for id, ps := range b.sent {
		cp := *ps
		nb.sent[id] = &cp
	}
	return nb
}

func (b *mapBuilder) Snapshot() (*Pattern, []LostMessage, error) {
	return b.Clone().FinalizeLossy()
}

func (b *mapBuilder) nextSeq(i ProcID) int {
	s := b.seq[i]
	b.seq[i]++
	return s
}

// appendBinary is the encoding as the map builder wrote it: delivered
// messages in delivery order.
func (b *mapBuilder) appendBinary(buf []byte) []byte {
	buf = append(buf, builderMagic...)
	buf = binenc.AppendInt(buf, b.n)
	for _, s := range b.seq {
		buf = binenc.AppendInt(buf, s)
	}
	for i := 0; i < b.n; i++ {
		buf = binenc.AppendInt(buf, len(b.ckpts[i]))
		for _, ck := range b.ckpts[i] {
			buf = binenc.AppendInt(buf, ck.Seq)
			buf = append(buf, byte(ck.Kind))
			if ck.TDV == nil {
				buf = binenc.AppendBool(buf, false)
			} else {
				buf = binenc.AppendBool(buf, true)
				buf = binenc.AppendInts(buf, ck.TDV)
			}
		}
	}
	buf = binenc.AppendInt(buf, len(b.msgs))
	for _, m := range b.msgs {
		for _, v := range []int{m.ID, int(m.From), int(m.To), m.SendInterval, m.SendSeq, m.DeliverInterval, m.DeliverSeq} {
			buf = binenc.AppendInt(buf, v)
		}
	}
	ids := make([]int, 0, len(b.sent))
	for id := range b.sent {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	buf = binenc.AppendInt(buf, len(ids))
	for _, id := range ids {
		ps := b.sent[id]
		for _, v := range []int{id, int(ps.from), int(ps.to), ps.sendInterval, ps.sendSeq} {
			buf = binenc.AppendInt(buf, v)
		}
	}
	return binenc.AppendInt(buf, b.nextID)
}

// TestBuilderMatchesMapOracle drives the builder and the map builder with
// the same random streams — double, unknown and out-of-range deliveries,
// self-sends, Clone, Snapshot, FinalizeLossy mid-run, and round trips
// through AppendBinary in both the new encoding and the oracle's — and
// requires the same handles, counters, errors, patterns and lost
// messages at every step.
func TestBuilderMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(5)
		b, o := NewBuilder(n), newMapBuilder(n)
		var handles []int
		fail := func(op string, got, want any) {
			t.Helper()
			t.Fatalf("trial %d, %s: builder %v, oracle %v", trial, op, got, want)
		}
		same := func(op string, got, want any) {
			t.Helper()
			if !reflect.DeepEqual(got, want) {
				fail(op, got, want)
			}
		}
		for step := 0; step < 80; step++ {
			switch r := rng.Intn(100); {
			case r < 35:
				from, to := ProcID(rng.Intn(n)), ProcID(rng.Intn(n))
				h := b.Send(from, to)
				same("send", h, o.Send(from, to))
				handles = append(handles, h)
			case r < 60 && len(handles) > 0:
				h := handles[rng.Intn(len(handles))] // may be delivered or lost already
				same("deliver", fmt.Sprint(b.Deliver(h)), fmt.Sprint(o.Deliver(h)))
			case r < 63:
				h := rng.Intn(b.NextMessageID()+3) - 2 // unknown ids on both sides
				same("deliver unknown", fmt.Sprint(b.Deliver(h)), fmt.Sprint(o.Deliver(h)))
			case r < 83:
				i := ProcID(rng.Intn(n))
				kind := []CheckpointKind{KindBasic, KindForced}[rng.Intn(2)]
				var tdv []int
				if rng.Intn(2) == 0 {
					tdv = make([]int, n)
					for j := range tdv {
						tdv[j] = rng.Intn(4)
					}
				}
				same("checkpoint", b.Checkpoint(i, kind, tdv), o.Checkpoint(i, kind, tdv))
			case r < 87:
				p1, l1, e1 := b.Snapshot()
				p2, l2, e2 := o.Snapshot()
				same("snapshot", []any{p1, l1, fmt.Sprint(e1)}, []any{p2, l2, fmt.Sprint(e2)})
			case r < 90:
				// Continue on the clones; the originals are dropped.
				b, o = b.Clone(), o.Clone()
			case r < 92:
				p1, l1, e1 := b.FinalizeLossy()
				p2, l2, e2 := o.FinalizeLossy()
				same("finalize lossy", []any{p1, l1, fmt.Sprint(e1)}, []any{p2, l2, fmt.Sprint(e2)})
			case r < 94:
				p1, e1 := b.Finalize()
				p2, e2 := o.Finalize()
				same("finalize", []any{p1, fmt.Sprint(e1)}, []any{p2, fmt.Sprint(e2)})
			case r < 97:
				dec, err := DecodeBuilder(b.AppendBinary(nil))
				if err != nil {
					t.Fatalf("trial %d: decode own encoding: %v", trial, err)
				}
				b = dec
			default:
				dec, err := DecodeBuilder(o.appendBinary(nil))
				if err != nil {
					t.Fatalf("trial %d: decode oracle encoding: %v", trial, err)
				}
				b = dec
			}
			same("in flight", b.InFlight(), o.InFlight())
			same("next id", b.NextMessageID(), o.nextID)
			for i := 0; i < n; i++ {
				same("next index", b.NextIndex(ProcID(i)), o.NextIndex(ProcID(i)))
				same("events since checkpoint", b.EventsSinceCheckpoint(ProcID(i)), o.EventsSinceCheckpoint(ProcID(i)))
			}
		}
		p1, l1, e1 := b.FinalizeLossy()
		p2, l2, e2 := o.FinalizeLossy()
		same("final", []any{p1, l1, fmt.Sprint(e1)}, []any{p2, l2, fmt.Sprint(e2)})
	}
}
