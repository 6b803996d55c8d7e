package rgraph

import (
	"errors"
	"fmt"

	"github.com/rdt-go/rdt/internal/model"
)

// ErrNoConsistentGlobal is returned when no consistent global checkpoint
// satisfies the requested constraints (for instance because a pinned
// checkpoint is useless).
var ErrNoConsistentGlobal = errors.New("no consistent global checkpoint satisfies the constraints")

// Orphan describes a message that is orphan with respect to a global
// checkpoint: it is delivered before the receiver's checkpoint although it
// is sent after the sender's checkpoint.
type Orphan struct {
	Message model.Message
	Global  model.GlobalCheckpoint
}

// Error renders the orphan as a diagnostic.
func (o *Orphan) Error() string {
	return fmt.Sprintf("message %d (P%d I%d -> P%d I%d) is orphan w.r.t. %v",
		o.Message.ID, o.Message.From, o.Message.SendInterval, o.Message.To, o.Message.DeliverInterval, o.Global)
}

// FindOrphan returns an orphan message of the global checkpoint, or nil if
// the global checkpoint is consistent (Definition 2.2). The global
// checkpoint must have one entry per process, each within range.
func FindOrphan(p *model.Pattern, g model.GlobalCheckpoint) (*Orphan, error) {
	if err := checkGlobal(p, g); err != nil {
		return nil, err
	}
	for i := range p.Messages {
		m := &p.Messages[i]
		if m.SendInterval > g[m.From] && m.DeliverInterval <= g[m.To] {
			return &Orphan{Message: *m, Global: g.Clone()}, nil
		}
	}
	return nil, nil
}

// IsConsistent reports whether the global checkpoint is consistent: no pair
// of its local checkpoints has an orphan message.
func IsConsistent(p *model.Pattern, g model.GlobalCheckpoint) (bool, error) {
	o, err := FindOrphan(p, g)
	if err != nil {
		return false, err
	}
	return o == nil, nil
}

// MinConsistentContaining computes the minimum consistent global checkpoint
// containing every checkpoint of the set, by a least fixpoint that raises
// sender entries until no orphan remains. It fails with
// ErrNoConsistentGlobal when the fixpoint needs to move a pinned entry.
//
// Under RDT, for a single checkpoint C_{i,x}, the result equals the
// dependency vector recorded with C_{i,x} (Corollary 4.5).
func MinConsistentContaining(p *model.Pattern, set ...model.CkptID) (model.GlobalCheckpoint, error) {
	pinned, g, err := pinSet(p, set)
	if err != nil {
		return nil, err
	}
	f := newMinFixpoint(p)
	f.reset()
	copy(f.g, g)
	if k, ok := f.run(pinned); !ok {
		return nil, fmt.Errorf("%w: raising P%d past pinned checkpoint", ErrNoConsistentGlobal, k)
	}
	return f.g, nil
}

// MinConsistentSweep calls fn for every checkpoint, process by process in
// index order, with the minimum consistent global checkpoint containing
// it (reused by the next call), or nil when the checkpoint is useless. It
// stops at fn's first error. The unpinned fixpoint is monotone in x, so
// one serves a whole process: C_{i,x} has a minimum iff it keeps g[i] = x.
func MinConsistentSweep(p *model.Pattern, fn func(c model.CkptID, min model.GlobalCheckpoint) error) error {
	f := newMinFixpoint(p)
	for i := range p.Checkpoints {
		f.reset()
		for x := range p.Checkpoints[i] {
			f.raise(model.ProcID(i), x)
			f.run(nil)
			min := f.g
			if f.g[i] != x {
				min = nil
			}
			if err := fn(model.CkptID{Proc: model.ProcID(i), Index: x}, min); err != nil {
				return err
			}
		}
	}
	return nil
}

// minFixpoint is a worklist of the processes whose entry rose; each scans
// its deliveries interval by interval from where it last stopped. Entries
// only rise, so a run reads each delivery once: O(M + N), not rounds × M.
type minFixpoint struct {
	msgs       []model.Message
	first      []int   // bucket of (j, interval 0); j's buckets end at first[j+1]
	head, link []int32 // 1 + a bucket's last message / a message's predecessor
	done       []int   // per receiver, how many of its buckets are applied
	g          model.GlobalCheckpoint
	work       []model.ProcID
}

// newMinFixpoint links each delivery into its (receiver, interval) bucket;
// intervals a valid pattern cannot have are clamped into range.
func newMinFixpoint(p *model.Pattern) *minFixpoint {
	f := &minFixpoint{
		msgs:  p.Messages,
		first: make([]int, p.N+1),
		link:  make([]int32, len(p.Messages)),
		done:  make([]int, p.N),
		g:     make(model.GlobalCheckpoint, p.N),
	}
	for j, cs := range p.Checkpoints {
		f.first[j+1] = f.first[j] + len(cs) + 1
	}
	f.head = make([]int32, f.first[p.N])
	for i := range p.Messages {
		m := &p.Messages[i]
		b := f.first[m.To] + min(max(m.DeliverInterval, 0), len(p.Checkpoints[m.To]))
		f.link[i], f.head[b] = f.head[b], int32(i+1)
	}
	return f
}

// reset zeroes g and queues every process, with no delivery applied.
func (f *minFixpoint) reset() {
	clear(f.g)
	clear(f.done)
	for k := range f.g {
		f.raise(model.ProcID(k), 0)
	}
}

func (f *minFixpoint) raise(k model.ProcID, x int) {
	f.g[k] = max(f.g[k], x)
	f.work = append(f.work, k)
}

// run applies deliveries until no orphan remains or a pinned entry must rise.
func (f *minFixpoint) run(pinned []bool) (model.ProcID, bool) {
	for len(f.work) > 0 {
		j := f.work[len(f.work)-1]
		f.work = f.work[:len(f.work)-1]
		for ; f.done[j] <= f.g[j] && f.first[j]+f.done[j] < f.first[j+1]; f.done[j]++ {
			for i := f.head[f.first[j]+f.done[j]]; i != 0; i = f.link[i-1] {
				if m := &f.msgs[i-1]; m.SendInterval > f.g[m.From] {
					if pinned != nil && pinned[m.From] {
						return m.From, false
					}
					f.raise(m.From, m.SendInterval)
				}
			}
		}
	}
	return 0, true
}

// MaxConsistentContaining computes the maximum consistent global checkpoint
// containing every checkpoint of the set, by a greatest fixpoint that
// lowers receiver entries until no orphan remains.
func MaxConsistentContaining(p *model.Pattern, set ...model.CkptID) (model.GlobalCheckpoint, error) {
	pinned, g, err := pinSet(p, set)
	if err != nil {
		return nil, err
	}
	for k := range g {
		if !pinned[k] {
			g[k] = p.LastIndex(model.ProcID(k))
		}
	}
	return lower(p, g, pinned)
}

// RecoveryLine computes the maximum consistent global checkpoint dominated
// by the given per-process bounds — the recovery line used after a failure,
// when each process may restart at most from bounds[i]. It always exists:
// the all-initial global checkpoint is consistent.
func RecoveryLine(p *model.Pattern, bounds model.GlobalCheckpoint) (model.GlobalCheckpoint, error) {
	if err := checkGlobal(p, bounds); err != nil {
		return nil, err
	}
	return lower(p, bounds.Clone(), nil)
}

// lower is the greatest fixpoint below g: it lowers receiver entries in
// place until no orphan remains, and fails with ErrNoConsistentGlobal
// when a pinned entry would have to move (nil pins none).
func lower(p *model.Pattern, g model.GlobalCheckpoint, pinned []bool) (model.GlobalCheckpoint, error) {
	for changed := true; changed; {
		changed = false
		for i := range p.Messages {
			m := &p.Messages[i]
			if m.SendInterval > g[m.From] && m.DeliverInterval <= g[m.To] {
				if pinned != nil && pinned[m.To] {
					return nil, fmt.Errorf("%w: lowering P%d below pinned checkpoint", ErrNoConsistentGlobal, m.To)
				}
				g[m.To] = m.DeliverInterval - 1
				changed = true
			}
		}
	}
	return g, nil
}

func pinSet(p *model.Pattern, set []model.CkptID) (pinned []bool, g model.GlobalCheckpoint, err error) {
	if len(set) == 0 {
		return nil, nil, errors.New("empty checkpoint set")
	}
	pinned = make([]bool, p.N)
	g = make(model.GlobalCheckpoint, p.N)
	for _, c := range set {
		if _, err := p.Checkpoint(c); err != nil {
			return nil, nil, err
		}
		if pinned[c.Proc] && g[c.Proc] != c.Index {
			return nil, nil, fmt.Errorf("%w: two different checkpoints of P%d pinned", ErrNoConsistentGlobal, c.Proc)
		}
		pinned[c.Proc] = true
		g[c.Proc] = c.Index
	}
	return pinned, g, nil
}

func checkGlobal(p *model.Pattern, g model.GlobalCheckpoint) error {
	if len(g) != p.N {
		return fmt.Errorf("global checkpoint has %d entries, want %d", len(g), p.N)
	}
	for i, x := range g {
		if x < 0 || x > p.LastIndex(model.ProcID(i)) {
			return fmt.Errorf("global checkpoint entry %d = %d out of range [0,%d]", i, x, p.LastIndex(model.ProcID(i)))
		}
	}
	return nil
}

// InTransit returns the messages that are in the channels at the cut g:
// sent at or before the sender's checkpoint and delivered only after the
// receiver's. When a system rolls back to g these messages are lost with
// the channel state; a recovery implementation replays them from a
// message log. (For a consistent g there are no orphans, so in-transit
// messages are the only channel repair needed.)
func InTransit(p *model.Pattern, g model.GlobalCheckpoint) ([]model.Message, error) {
	if err := checkGlobal(p, g); err != nil {
		return nil, err
	}
	var out []model.Message
	for i := range p.Messages {
		m := &p.Messages[i]
		if m.SendInterval <= g[m.From] && m.DeliverInterval > g[m.To] {
			out = append(out, *m)
		}
	}
	return out, nil
}
