// Package recovery implements rollback recovery on top of stored
// checkpoints: computing recovery lines from the dependency vectors the
// protocols persist with every checkpoint, quantifying rollback (the
// domino-effect metric), and garbage-collecting obsolete checkpoints.
//
// The central observation is that dependency vectors alone suffice: a
// global checkpoint {C_{k,g[k]}} is consistent if and only if no stored
// vector TDV_{l,g[l]} has an entry TDV_{l,g[l]}[k] > g[k] — an orphan
// message is a causal chain of length one, and any longer violating causal
// chain crosses the cut in an orphan message. The recovery manager
// therefore never needs the message trace, only the checkpoint store,
// exactly as a production rollback system would.
package recovery

import (
	"errors"
	"fmt"

	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/obs"
	"github.com/rdt-go/rdt/internal/rgraph"
	"github.com/rdt-go/rdt/internal/storage"
)

// ErrNoCheckpoint is returned when a process has no stored checkpoint at
// or below its bound.
var ErrNoCheckpoint = errors.New("no usable checkpoint")

// Plan describes the outcome of a recovery-line computation.
type Plan struct {
	// Line is the recovery line: the maximum consistent global checkpoint
	// dominated by the bounds.
	Line model.GlobalCheckpoint
	// Bounds is what each process could have restarted from at best (its
	// latest stored checkpoint, or the crash bound).
	Bounds model.GlobalCheckpoint
	// Depth[i] = Bounds[i] - Line[i]: how many checkpoint intervals
	// process i loses. Domino effect = depths larger than the failure
	// itself forced.
	Depth []int
}

// TotalRollback returns the sum of the per-process rollback depths.
func (p *Plan) TotalRollback() int {
	total := 0
	for _, d := range p.Depth {
		total += d
	}
	return total
}

// Manager computes recovery lines over a checkpoint store.
type Manager struct {
	store  storage.Store
	n      int
	obs    *obs.Registry
	tracer *obs.Tracer
}

// NewManager creates a recovery manager for a system of n processes.
func NewManager(store storage.Store, n int) (*Manager, error) {
	if n <= 0 {
		return nil, fmt.Errorf("recovery: invalid process count %d", n)
	}
	if store == nil {
		return nil, errors.New("recovery: nil store")
	}
	return &Manager{store: store, n: n}, nil
}

// Observe attaches observability to the manager: every computed
// recovery line reports per-process rollback depths (histogram and
// rollback events) and bumps the recovery counter. Either argument may
// be nil. It returns the manager for chaining.
func (m *Manager) Observe(reg *obs.Registry, tr *obs.Tracer) *Manager {
	m.obs = reg
	m.tracer = tr
	return m
}

// Latest returns the per-process latest usable stored checkpoint
// indexes. A corrupt latest checkpoint — typically the one being written
// when the machine died — is quarantined (moved aside, preserved where
// the medium allows) and the previous index is used instead, so one torn
// file degrades the recovery line by one interval instead of failing the
// whole recovery.
func (m *Manager) Latest() (model.GlobalCheckpoint, error) {
	bounds := make(model.GlobalCheckpoint, m.n)
	for i := 0; i < m.n; i++ {
		cp, err := m.latestUsable(i)
		if err != nil {
			return nil, err
		}
		bounds[i] = cp.Index
	}
	return bounds, nil
}

// latestUsable walks a process's stored checkpoints from the highest
// index down, quarantining undecodable ones, until a readable checkpoint
// is found.
func (m *Manager) latestUsable(proc int) (storage.Checkpoint, error) {
	indexes, err := m.store.Indexes(proc)
	if err != nil {
		return storage.Checkpoint{}, fmt.Errorf("recovery: process %d: %w", proc, err)
	}
	for i := len(indexes) - 1; i >= 0; i-- {
		cp, err := m.store.Get(proc, indexes[i])
		switch {
		case err == nil:
			return cp, nil
		case errors.Is(err, storage.ErrCorrupt):
			if qerr := storage.Quarantine(m.store, proc, indexes[i]); qerr != nil {
				return storage.Checkpoint{}, fmt.Errorf("recovery: quarantine C{%d,%d}: %w", proc, indexes[i], qerr)
			}
			m.noteQuarantine(proc, indexes[i], err)
		case errors.Is(err, storage.ErrNotFound):
			// Deleted between the listing and the read; keep walking.
		default:
			return storage.Checkpoint{}, fmt.Errorf("recovery: process %d: %w", proc, err)
		}
	}
	return storage.Checkpoint{}, fmt.Errorf("recovery: process %d: %w", proc, ErrNoCheckpoint)
}

// noteQuarantine accounts for one corrupt checkpoint moved aside.
func (m *Manager) noteQuarantine(proc, index int, cause error) {
	m.obs.Counter("rdt_recovery_quarantined_total").Inc()
	m.tracer.Record(obs.Event{
		Type: obs.EventQuarantine, Proc: proc, Value: index, Detail: cause.Error(),
	})
}

// Line computes the recovery line dominated by bounds from the
// dependency vectors recorded with the checkpoints alone: vectorAt
// returns TDV_{proc,index}, and is asked for every index the fixpoint
// visits, each process walking down from its bound. This is the one
// recovery-line fixpoint; Manager reads the vectors from a checkpoint
// store, a served session from its on-line checker.
func Line(bounds model.GlobalCheckpoint, vectorAt func(proc, index int) ([]int, error)) (*Plan, error) {
	n := len(bounds)
	g := bounds.Clone()
	tdv := make([][]int, n) // current TDV_{l,g[l]}
	at := func(l int) error {
		v, err := vectorAt(l, g[l])
		if err != nil {
			return err
		}
		if len(v) != n {
			return fmt.Errorf("recovery: checkpoint C{%d,%d} has TDV of length %d, want %d", l, g[l], len(v), n)
		}
		tdv[l] = v
		return nil
	}
	for l := 0; l < n; l++ {
		if err := at(l); err != nil {
			return nil, err
		}
	}
	for changed := true; changed; {
		changed = false
		for l := 0; l < n; l++ {
			for k := 0; k < n; k++ {
				if k == l || tdv[l][k] <= g[k] {
					continue
				}
				// C_{l,g[l]} depends on an interval of P_k beyond the cut:
				// P_l must roll back below the delivery that created the
				// dependency. Walk down one checkpoint at a time; each step
				// discards at least one interval, so this terminates.
				if g[l] == 0 {
					return nil, fmt.Errorf("recovery: process %d cannot roll back below its initial checkpoint", l)
				}
				g[l]--
				if err := at(l); err != nil {
					return nil, err
				}
				changed = true
			}
		}
	}
	depth := make([]int, n)
	for i := range bounds {
		depth[i] = bounds[i] - g[i]
	}
	return &Plan{Line: g, Bounds: bounds.Clone(), Depth: depth}, nil
}

// Observe accounts for one recovery-line computation: it bumps the
// recovery counter and reports the per-process rollback depths
// (histogram and rollback events). Either of reg and tr may be nil.
func Observe(reg *obs.Registry, tr *obs.Tracer, p *Plan) {
	if reg == nil && tr == nil {
		return
	}
	reg.Counter("rdt_recoveries_total").Inc()
	perProc := reg.Histogram("rdt_rollback_depth", obs.DepthBuckets, "scope", "process")
	for proc, d := range p.Depth {
		perProc.Observe(float64(d))
		tr.Record(obs.Event{Type: obs.EventRollback, Proc: proc, Value: d})
	}
	reg.Histogram("rdt_rollback_depth", obs.DepthBuckets, "scope", "total").
		Observe(float64(p.TotalRollback()))
}

// LineFrom computes the recovery line dominated by the given bounds (see
// Line) from the vectors in the manager's store. Every process must
// have stored checkpoints (at least the initial one) at every index the
// fixpoint visits — which the runtime guarantees, since it persists all
// of them.
func (m *Manager) LineFrom(bounds model.GlobalCheckpoint) (*Plan, error) {
	if len(bounds) != m.n {
		return nil, fmt.Errorf("recovery: bounds have %d entries, want %d", len(bounds), m.n)
	}
	plan, err := Line(bounds, m.vectorAt)
	if err != nil {
		return nil, err
	}
	Observe(m.obs, m.tracer, plan)
	return plan, nil
}

// AfterCrash computes the recovery line when the given processes crash:
// each crashed process restarts from its latest stored checkpoint, the
// others are bounded by theirs. (With every checkpoint persisted, the two
// bounds coincide; the distinction matters when surviving processes keep
// volatile state beyond their last checkpoint — they too must roll back to
// a stored one.)
func (m *Manager) AfterCrash(crashed ...int) (*Plan, error) {
	for _, p := range crashed {
		if p < 0 || p >= m.n {
			return nil, fmt.Errorf("recovery: crashed process %d out of range", p)
		}
	}
	bounds, err := m.Latest()
	if err != nil {
		return nil, err
	}
	return m.LineFrom(bounds)
}

// Restore fetches the stored checkpoints selected by the line, returning
// the application state snapshots to reinstall, one per process.
func (m *Manager) Restore(line model.GlobalCheckpoint) ([]storage.Checkpoint, error) {
	if len(line) != m.n {
		return nil, fmt.Errorf("recovery: line has %d entries, want %d", len(line), m.n)
	}
	out := make([]storage.Checkpoint, m.n)
	for i := 0; i < m.n; i++ {
		cp, err := m.store.Get(i, line[i])
		if err != nil {
			return nil, fmt.Errorf("recovery: restore process %d: %w", i, err)
		}
		out[i] = cp
	}
	return out, nil
}

// GC removes every checkpoint strictly below the recovery line; they can
// never be needed again. It returns the number of checkpoints discarded.
func (m *Manager) GC(line model.GlobalCheckpoint) (int, error) {
	removed, err := storage.GCBelow(m.store, line)
	if removed > 0 {
		m.obs.Counter("rdt_recovery_gc_total").Add(int64(removed))
	}
	return removed, err
}

func (m *Manager) vectorAt(proc, index int) ([]int, error) {
	cp, err := m.store.Get(proc, index)
	if err != nil {
		return nil, fmt.Errorf("recovery: checkpoint C{%d,%d}: %w", proc, index, err)
	}
	return cp.TDV, nil
}

// ReplayMessage is one in-transit message to re-send after a rollback.
type ReplayMessage struct {
	ID      int
	From    int
	To      int
	Payload []byte
}

// ReplaySet computes, from the recorded pattern and a recovery line, the
// messages that were in the channels at the line and must be re-sent from
// the message log when the computation resumes. The payload function maps
// a message id to its logged payload (for example Cluster.Payload); it may
// be nil when only the addressing matters.
func ReplaySet(p *model.Pattern, line model.GlobalCheckpoint, payload func(id int) ([]byte, bool)) ([]ReplayMessage, error) {
	inTransit, err := rgraph.InTransit(p, line)
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	out := make([]ReplayMessage, 0, len(inTransit))
	for _, m := range inTransit {
		rm := ReplayMessage{ID: m.ID, From: int(m.From), To: int(m.To)}
		if payload != nil {
			data, ok := payload(m.ID)
			if !ok {
				return nil, fmt.Errorf("recovery: message %d has no logged payload", m.ID)
			}
			rm.Payload = data
		}
		out = append(out, rm)
	}
	return out, nil
}
