package model

import "fmt"

// Builder incrementally constructs a Pattern from a stream of per-process
// events (checkpoints, sends, deliveries). Builders are used directly in
// tests, by the discrete-event simulator and — behind a mutex — by the
// concurrent runtime.
//
// The builder enforces the sequential-process model: events of one process
// are totally ordered by the order of the builder calls naming that process.
// Events of different processes may be interleaved arbitrarily.
type Builder struct {
	n     int
	seq   []int // next local event-sequence number per process
	ckpts [][]Checkpoint
	// msgs holds every message sent, at the index of its id (ids are
	// dense from 0, so len(msgs) is the next id). A message in flight has
	// DeliverSeq seqInFlight; one dropped by FinalizeLossy has seqLost.
	msgs     []Message
	inFlight int
	lost     int
	// tdvs is what is left of the chunk Checkpoint copies vectors into.
	// Each piece is handed out once and never written again, so patterns
	// finalized earlier keep theirs: Reset does not rewind it.
	tdvs []int
}

// tdvChunkCopies is how many vectors of n entries one chunk of
// Builder.tdvs holds.
const tdvChunkCopies = 64

// Delivery-sequence markers of the messages in Builder.msgs that have no
// delivery event; real sequence numbers are never negative.
const (
	seqInFlight = -1
	seqLost     = -2
)

// NewBuilder returns a builder for n processes. Each process starts with an
// initial checkpoint C_{i,0} (Kind KindInitial), matching the model
// assumption of the paper.
func NewBuilder(n int) *Builder {
	b := &Builder{}
	b.Reset(n)
	return b
}

// Reset empties the builder for a new execution of n processes, as
// NewBuilder(n) would, but keeps its buffers for the events to come.
// Patterns the builder finalized before stay valid: they hold copies,
// and the vectors they share with the builder's chunk are never handed
// out again.
func (b *Builder) Reset(n int) {
	b.n = n
	b.seq = append(b.seq[:0], make([]int, n)...)
	if cap(b.ckpts) < n {
		b.ckpts = make([][]Checkpoint, n)
	}
	b.ckpts = b.ckpts[:n]
	for i := range b.ckpts {
		b.ckpts[i] = append(b.ckpts[i][:0], Checkpoint{
			Proc: ProcID(i),
			Kind: KindInitial,
			Seq:  b.nextSeq(ProcID(i)),
		})
	}
	b.msgs = b.msgs[:0]
	b.inFlight, b.lost = 0, 0
}

// N returns the number of processes.
func (b *Builder) N() int { return b.n }

// NextIndex returns the index the next checkpoint of process i will get;
// equivalently the index of the current checkpoint interval I_{i,x}.
func (b *Builder) NextIndex(i ProcID) int { return len(b.ckpts[i]) }

// EventsSinceCheckpoint reports how many events (sends and deliveries)
// process i executed in its current checkpoint interval.
func (b *Builder) EventsSinceCheckpoint(i ProcID) int {
	last := b.ckpts[i][len(b.ckpts[i])-1]
	return b.seq[i] - last.Seq - 1
}

// Checkpoint records a local checkpoint of process i with the given kind and
// optional transitive dependency vector (tdv may be nil; it is copied, so
// the caller may write it again). It returns the identifier of the new
// checkpoint.
func (b *Builder) Checkpoint(i ProcID, kind CheckpointKind, tdv []int) CkptID {
	if tdv != nil {
		tdv = b.copyTDV(tdv)
	}
	ck := Checkpoint{
		Proc:  i,
		Index: len(b.ckpts[i]),
		Seq:   b.nextSeq(i),
		Kind:  kind,
		TDV:   tdv,
	}
	b.ckpts[i] = append(b.ckpts[i], ck)
	return ck.ID()
}

// copyTDV copies tdv into the next piece of the builder's chunk, taking
// a new chunk when what is left is too short.
func (b *Builder) copyTDV(tdv []int) []int {
	n := len(tdv)
	if len(b.tdvs) < n {
		b.tdvs = make([]int, tdvChunkCopies*n)
	}
	v := b.tdvs[:n:n]
	b.tdvs = b.tdvs[n:]
	copy(v, tdv)
	return v
}

// Send records that process from sent a message to process to, in from's
// current checkpoint interval. It returns an opaque message handle that must
// later be passed to Deliver exactly once.
func (b *Builder) Send(from, to ProcID) int {
	id := len(b.msgs)
	b.msgs = append(b.msgs, Message{
		ID:              id,
		From:            from,
		To:              to,
		SendInterval:    b.NextIndex(from),
		SendSeq:         b.nextSeq(from),
		DeliverInterval: seqInFlight,
		DeliverSeq:      seqInFlight,
	})
	b.inFlight++
	return id
}

// Deliver records the delivery, in the destination's current checkpoint
// interval, of the message previously created by Send.
func (b *Builder) Deliver(msg int) error {
	if msg < 0 || msg >= len(b.msgs) || b.msgs[msg].DeliverSeq != seqInFlight {
		return fmt.Errorf("deliver: unknown or already delivered message handle %d", msg)
	}
	m := &b.msgs[msg]
	m.DeliverInterval = b.NextIndex(m.To)
	m.DeliverSeq = b.nextSeq(m.To)
	b.inFlight--
	return nil
}

// InFlight returns the number of sent but not yet delivered messages.
func (b *Builder) InFlight() int { return b.inFlight }

// Finalize closes the pattern: every process whose current interval contains
// at least one event receives a final checkpoint (Kind KindFinal), so that
// every event belongs to a closed interval, as the model assumes. Messages
// still in flight make Finalize fail — channels are reliable, so a finite
// run must deliver everything it sent.
//
// The builder's counters set every index, seq and interval, so of
// Validate's checks Finalize runs only the three its caller can fail — at
// least one process, TDV lengths, no self-send — in Validate's order and
// with its errors.
func (b *Builder) Finalize() (*Pattern, error) {
	if b.inFlight > 0 {
		return nil, fmt.Errorf("finalize: %d messages still in flight", b.inFlight)
	}
	if b.n <= 0 {
		return nil, fmt.Errorf("finalize: %w", errNoProcesses)
	}
	for i := 0; i < b.n; i++ {
		if b.EventsSinceCheckpoint(ProcID(i)) > 0 {
			b.Checkpoint(ProcID(i), KindFinal, nil)
		}
	}
	total := 0
	for _, c := range b.ckpts {
		total += len(c)
	}
	all := make([]Checkpoint, 0, total)
	ckpts := make([][]Checkpoint, b.n)
	for i, c := range b.ckpts {
		for x := range c {
			if err := c[x].checkTDV(b.n); err != nil {
				return nil, fmt.Errorf("finalize: %w", err)
			}
		}
		all = append(all, c...)
		ckpts[i] = all[len(all)-len(c) : len(all) : len(all)]
	}
	// The table is in id order already; only messages FinalizeLossy
	// dropped are left out.
	msgs := make([]Message, 0, len(b.msgs)-b.lost)
	for i := range b.msgs {
		m := &b.msgs[i]
		if m.DeliverSeq == seqLost {
			continue
		}
		if err := m.checkNotSelf(); err != nil {
			return nil, fmt.Errorf("finalize: %w", err)
		}
		msgs = append(msgs, *m)
	}
	return &Pattern{N: b.n, Checkpoints: ckpts, Messages: msgs}, nil
}

// LostMessage records a send whose delivery never happened — a frame
// that died with a crashed process or a lossy link. Lost messages cannot
// appear in a Pattern (patterns model complete executions); they are
// reported alongside it by FinalizeLossy so recovery can replay the ones
// sent at or before the recovery line.
type LostMessage struct {
	ID           int
	From, To     ProcID
	SendInterval int
}

// FinalizeLossy closes the pattern like Finalize, but tolerates messages
// still in flight: they are dropped from the pattern and returned as
// lost messages. It is the finalization path for crashed or chaotic
// runs, where "channels are reliable" no longer holds at the instant the
// run is cut.
func (b *Builder) FinalizeLossy() (*Pattern, []LostMessage, error) {
	var lost []LostMessage
	for id := 0; id < len(b.msgs) && len(lost) < b.inFlight; id++ {
		m := &b.msgs[id]
		if m.DeliverSeq != seqInFlight {
			continue
		}
		lost = append(lost, LostMessage{
			ID:           id,
			From:         m.From,
			To:           m.To,
			SendInterval: m.SendInterval,
		})
		m.DeliverInterval, m.DeliverSeq = seqLost, seqLost
	}
	b.lost += len(lost)
	b.inFlight = 0
	p, err := b.Finalize()
	if err != nil {
		return nil, nil, err
	}
	return p, lost, nil
}

// Clone returns a deep copy of the builder: recording further events on
// either copy leaves the other untouched. It is what lets a long-running
// session snapshot its pattern-so-far without stopping ingestion.
func (b *Builder) Clone() *Builder {
	// The copy takes no part of b's vector chunk: sharing what is left
	// of it would hand each piece out twice.
	nb := &Builder{
		n:        b.n,
		seq:      append([]int(nil), b.seq...),
		ckpts:    make([][]Checkpoint, b.n),
		msgs:     append([]Message(nil), b.msgs...),
		inFlight: b.inFlight,
		lost:     b.lost,
	}
	for i := range b.ckpts {
		nb.ckpts[i] = append([]Checkpoint(nil), b.ckpts[i]...)
	}
	return nb
}

// Snapshot finalizes a copy of the builder's current state, leaving the
// builder itself untouched and open: the returned pattern is the run as
// if it ended now, with final checkpoints closing every event-bearing
// interval and in-flight messages reported as lost (FinalizeLossy
// semantics).
func (b *Builder) Snapshot() (*Pattern, []LostMessage, error) {
	return b.Clone().FinalizeLossy()
}

func (b *Builder) nextSeq(i ProcID) int {
	s := b.seq[i]
	b.seq[i]++
	return s
}

// NextMessageID returns the number of Send calls so far (message IDs are
// assigned sequentially from zero).
func (b *Builder) NextMessageID() int { return len(b.msgs) }
