package model

import (
	"fmt"
	"math"
	"slices"

	"github.com/rdt-go/rdt/internal/binenc"
)

// Deterministic binary state codec for Builder, used by the checking
// service's session snapshots: AppendBinary serializes every field a
// later DecodeBuilder needs to continue the event stream with behavior
// identical to the original builder — same pattern, same handles, same
// sequence numbers. Encoding the same builder state always yields the
// same bytes (messages are listed in id order), so snapshots are
// reproducible and diffable.

var builderMagic = []byte("RDTBLDR1")

// maxDecodeN bounds the process count a decoded builder or checker will
// allocate for; it matches the service's hard cap on session size. It
// also bounds a decoded builder's message ids, since its message table
// has one entry per id.
const maxDecodeN = 1 << 20

// AppendBinary appends the builder's complete state to buf and returns
// the extended slice.
func (b *Builder) AppendBinary(buf []byte) []byte {
	buf = append(buf, builderMagic...)
	buf = binenc.AppendInt(buf, b.n)
	for _, s := range b.seq {
		buf = binenc.AppendInt(buf, s)
	}
	for i := 0; i < b.n; i++ {
		buf = binenc.AppendInt(buf, len(b.ckpts[i]))
		for _, ck := range b.ckpts[i] {
			// Proc and Index are implied by position.
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
	// Delivered messages, then the ones in flight, each in id order;
	// ids below the next one that neither list holds were dropped by
	// FinalizeLossy.
	buf = binenc.AppendInt(buf, len(b.msgs)-b.inFlight-b.lost)
	for _, m := range b.msgs {
		if m.DeliverSeq < 0 {
			continue
		}
		buf = binenc.AppendInt(buf, m.ID)
		buf = binenc.AppendInt(buf, int(m.From))
		buf = binenc.AppendInt(buf, int(m.To))
		buf = binenc.AppendInt(buf, m.SendInterval)
		buf = binenc.AppendInt(buf, m.SendSeq)
		buf = binenc.AppendInt(buf, m.DeliverInterval)
		buf = binenc.AppendInt(buf, m.DeliverSeq)
	}
	buf = binenc.AppendInt(buf, b.inFlight)
	for _, m := range b.msgs {
		if m.DeliverSeq != seqInFlight {
			continue
		}
		buf = binenc.AppendInt(buf, m.ID)
		buf = binenc.AppendInt(buf, int(m.From))
		buf = binenc.AppendInt(buf, int(m.To))
		buf = binenc.AppendInt(buf, m.SendInterval)
		buf = binenc.AppendInt(buf, m.SendSeq)
	}
	buf = binenc.AppendInt(buf, len(b.msgs))
	return buf
}

// DecodeBuilder reconstructs a builder from AppendBinary output. It is the
// one constructor that takes state its own calls did not record, so it
// checks what Finalize leaves to the counters (checkRecorded): corrupt
// bytes fail here instead of yielding a builder that panics or finalizes
// an invalid pattern later.
func DecodeBuilder(data []byte) (*Builder, error) {
	r := binenc.NewReader(data)
	r.Expect(builderMagic)
	n := r.IntMax(maxDecodeN)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("decode builder: %w", err)
	}
	if n < 1 {
		return nil, fmt.Errorf("decode builder: process count %d", n)
	}
	b := &Builder{
		n:     n,
		seq:   make([]int, n),
		ckpts: make([][]Checkpoint, n),
	}
	for i := range b.seq {
		b.seq[i] = r.IntMax(maxDecodeSeq)
	}
	for i := 0; i < n; i++ {
		cnt := r.IntMax(maxDecodeN)
		if r.Err() != nil {
			break
		}
		if cnt < 1 {
			return nil, fmt.Errorf("decode builder: process %d has no initial checkpoint", i)
		}
		b.ckpts[i] = make([]Checkpoint, cnt)
		for x := range b.ckpts[i] {
			ck := &b.ckpts[i][x]
			ck.Proc, ck.Index = ProcID(i), x
			ck.Seq = r.Int()
			ck.Kind = CheckpointKind(r.Byte())
			if r.Bool() {
				ck.TDV = r.Ints(maxDecodeN)
			}
			if r.Err() == nil && (ck.Kind < KindInitial || ck.Kind > KindFinal) {
				return nil, fmt.Errorf("decode builder: checkpoint C{%d,%d} has kind %d", i, x, ck.Kind)
			}
		}
	}
	// Each listed message goes to its id's entry of the table; ids no
	// list holds stay lost. An id listed twice is refused here, and one at
	// or above the next id once that is read: a later Send must never
	// re-issue an id in use.
	delivered := r.IntMax(maxDecodeN)
	// Each listed message takes at least seven bytes, which bounds the
	// table's first allocation by the input.
	b.msgs = make([]Message, 0, min(delivered, r.Remaining()/7))
	for k := 0; k < delivered && r.Err() == nil; k++ {
		m := Message{
			ID:              r.IntMax(maxDecodeN - 1),
			From:            ProcID(r.IntMax(n - 1)),
			To:              ProcID(r.IntMax(n - 1)),
			SendInterval:    r.Int(),
			SendSeq:         r.Int(),
			DeliverInterval: r.Int(),
			DeliverSeq:      r.Int(),
		}
		if err := b.place(r, m); err != nil {
			return nil, err
		}
	}
	inFlight := r.IntMax(maxDecodeN)
	for k := 0; k < inFlight && r.Err() == nil; k++ {
		m := Message{
			ID:              r.IntMax(maxDecodeN - 1),
			From:            ProcID(r.IntMax(n - 1)),
			To:              ProcID(r.IntMax(n - 1)),
			SendInterval:    r.Int(),
			SendSeq:         r.Int(),
			DeliverInterval: seqInFlight,
			DeliverSeq:      seqInFlight,
		}
		if err := b.place(r, m); err != nil {
			return nil, err
		}
	}
	nextID := r.IntMax(maxDecodeN)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("decode builder: %w", err)
	}
	if len(b.msgs) > nextID {
		return nil, fmt.Errorf("decode builder: message %d listed at or above the next id %d", len(b.msgs)-1, nextID)
	}
	b.growTable(nextID)
	b.inFlight = inFlight
	b.lost = nextID - delivered - inFlight
	if err := b.checkRecorded(); err != nil {
		return nil, fmt.Errorf("decode builder: %w", err)
	}
	return b, nil
}

// maxDecodeSeq bounds a decoded seq counter, so that no run of further
// events can wrap it around.
const maxDecodeSeq = math.MaxInt >> 1

// checkRecorded refuses state that no sequence of builder calls records.
// It validates the run as it would go on — every in-flight message
// delivered, then every process checkpointed — which holds exactly when
// the checkpoint seqs increase from an initial checkpoint, every endpoint
// (in-flight sends included) lies inside the interval it names, no two
// endpoints of a process share a seq, and every seq counter is beyond the
// seqs of its process. TDV lengths and self-sends are left to Finalize.
func (b *Builder) checkRecorded() error {
	next := slices.Clone(b.seq)
	var msgs []Message
	for _, m := range b.msgs {
		if m.DeliverSeq == seqLost || m.From == m.To {
			continue
		}
		if m.DeliverSeq == seqInFlight {
			m.DeliverInterval, m.DeliverSeq = len(b.ckpts[m.To]), next[m.To]
			next[m.To]++
		}
		msgs = append(msgs, m)
	}
	ckpts := make([][]Checkpoint, b.n)
	for i, cs := range b.ckpts {
		for _, ck := range cs {
			ck.TDV = nil
			ckpts[i] = append(ckpts[i], ck)
		}
		ckpts[i] = append(ckpts[i], Checkpoint{Proc: ProcID(i), Index: len(cs), Seq: next[i]})
	}
	p := &Pattern{N: b.n, Checkpoints: ckpts, Messages: msgs}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("the run continued: %w", err)
	}
	return nil
}

// place puts a decoded message into its id's entry of the table, unless
// the read failed.
func (b *Builder) place(r *binenc.Reader, m Message) error {
	if r.Err() != nil {
		return nil
	}
	if m.ID >= len(b.msgs) {
		b.growTable(m.ID)
		b.msgs = append(b.msgs, m)
		return nil
	}
	if b.msgs[m.ID].DeliverSeq != seqLost {
		return fmt.Errorf("decode builder: message %d listed twice", m.ID)
	}
	b.msgs[m.ID] = m
	return nil
}

// growTable extends the message table to n entries with lost messages.
func (b *Builder) growTable(n int) {
	for id := len(b.msgs); id < n; id++ {
		b.msgs = append(b.msgs, Message{ID: id, DeliverInterval: seqLost, DeliverSeq: seqLost})
	}
}
