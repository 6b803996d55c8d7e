package cluster

import (
	"context"
	"errors"
	"fmt"

	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/recovery"
	"github.com/rdt-go/rdt/internal/storage"
	"github.com/rdt-go/rdt/internal/transport"
)

// ErrNotCrashed is returned by Restart for a process that is running.
var ErrNotCrashed = errors.New("process has not crashed")

// Restart brings a crashed process back into the running cluster with a
// fresh mailbox and its protocol state intact — the process simply missed
// everything sent while it was down. Restart alone does NOT roll anything
// back: messages that died with the crash stay lost, so the application
// state may have diverged. Use Recover for the full rollback-recovery
// path; use Restart when the application can tolerate (or repair) the
// gap itself.
func (c *Cluster) Restart(proc int) error {
	if c.isStopped() {
		return ErrStopped
	}
	if proc < 0 || proc >= c.cfg.N {
		return fmt.Errorf("cluster: restart: invalid process %d", proc)
	}
	n := c.nodes[proc]
	if !n.isCrashed() {
		return ErrNotCrashed
	}
	n.restart()
	c.noteRestart(proc)
	return nil
}

// RecoverOptions parameterizes Cluster.Recover.
type RecoverOptions struct {
	// Store is the checkpoint store of the new incarnation; nil means a
	// fresh in-memory store. Reusing the old store is allowed only
	// together with GC: the new incarnation restarts its checkpoint
	// indexes at zero, so with GC on a reused store Recover purges the
	// entire old history (the recovery line's state survives as the new
	// incarnation's initial checkpoints) — any leftover old-incarnation
	// checkpoint would shadow the new history and corrupt a later
	// recovery.
	Store storage.Store
	// Transport is the transport of the new incarnation; nil means a new
	// default local transport. The old transport is closed by Recover and
	// cannot be reused.
	Transport transport.Transport
	// Install, if non-nil, is called once per process with the checkpoint
	// selected by the recovery line, so the application can reinstall its
	// state snapshot before the new incarnation starts.
	Install func(cp storage.Checkpoint)
	// GC removes old-incarnation checkpoints strictly below the recovery
	// line from the old store after the plan is computed.
	GC bool
}

// RecoverResult reports what one end-to-end recovery did.
type RecoverResult struct {
	// Cluster is the new incarnation, running.
	Cluster *Cluster
	// Plan is the recovery-line computation over the old store.
	Plan *recovery.Plan
	// Pattern is the old incarnation's recorded pattern (lossy-finalized).
	Pattern *model.Pattern
	// Lost are the old incarnation's sends that were never delivered.
	Lost []model.LostMessage
	// Replayed are the messages re-sent into the new incarnation: the
	// in-transit set at the line plus the lost messages sent at or before
	// it.
	Replayed []recovery.ReplayMessage
}

// Recover runs the full crash-recovery loop in-process: it stops the old
// incarnation (tolerating loss), computes the recovery line from the
// stored dependency vectors for the currently crashed processes, hands
// the line's state snapshots to Install, determines every message that
// crosses the line — in-transit in the recorded pattern, or lost outright
// to a crash or a lossy link — and starts a new incarnation with those
// messages replayed from the message log.
//
// The receiving cluster must have been built with LogPayloads; ctx bounds
// the drain of in-flight work (a timeout just classifies more messages
// as lost, it does not fail the recovery).
func (c *Cluster) Recover(ctx context.Context, opts RecoverOptions) (*RecoverResult, error) {
	pattern, lost, crashed, err := c.stopForRecovery(ctx)
	if err != nil {
		return nil, err
	}
	return c.recoverFrom(pattern, lost, crashed, opts)
}

// stopForRecovery is the irrevocable half of Recover: it validates the
// configuration, captures the crashed set, and stops the old incarnation
// tolerating loss. It runs once per recovery; the build half
// (recoverFrom) can then be retried — by the supervisor, with backoff —
// without re-stopping a cluster that is already gone.
func (c *Cluster) stopForRecovery(ctx context.Context) (*model.Pattern, []model.LostMessage, []int, error) {
	c.mu.Lock()
	logging := c.payloads != nil
	c.mu.Unlock()
	if !logging {
		return nil, nil, nil, errors.New("cluster: recover requires LogPayloads")
	}
	crashed := c.Crashed()

	pattern, lost, err := c.StopLossy(ctx)
	if err != nil {
		return nil, nil, nil, err
	}
	return pattern, lost, crashed, nil
}

// recoverFrom is the retryable half of Recover: recovery line from the
// stored vectors, state snapshots to Install, replay set, optional GC,
// and the next incarnation. The steps before GC are read-only over the
// old store and freshly parameterized per call (the options carry the
// new incarnation's store and transport), so a failed attempt can be
// retried with new options — except after a purge (GC with a reused
// store), which consumes the old history; retries should hand each
// attempt a fresh store, as the supervisor's default options do.
func (c *Cluster) recoverFrom(pattern *model.Pattern, lost []model.LostMessage, crashed []int, opts RecoverOptions) (*RecoverResult, error) {
	mgr, err := recovery.NewManager(c.store, c.cfg.N)
	if err != nil {
		return nil, fmt.Errorf("cluster: recover: %w", err)
	}
	mgr.Observe(c.cfg.Obs, c.cfg.Tracer)
	plan, err := mgr.AfterCrash(crashed...)
	if err != nil {
		return nil, fmt.Errorf("cluster: recover: %w", err)
	}
	states, err := mgr.Restore(plan.Line)
	if err != nil {
		return nil, fmt.Errorf("cluster: recover: %w", err)
	}
	if opts.Install != nil {
		for _, cp := range states {
			opts.Install(cp)
		}
	}

	replay, err := recovery.ReplaySet(pattern, plan.Line, c.Payload)
	if err != nil {
		return nil, fmt.Errorf("cluster: recover: %w", err)
	}
	// A lost message is channel state exactly like an in-transit one: if
	// its send is inside the line, the receiver must still get it. (Lost
	// sends beyond the line are rolled back with their sender.)
	for _, lm := range lost {
		if lm.SendInterval > plan.Line[lm.From] {
			continue
		}
		data, ok := c.Payload(lm.ID)
		if !ok {
			return nil, fmt.Errorf("cluster: recover: lost message %d has no logged payload", lm.ID)
		}
		replay = append(replay, recovery.ReplayMessage{
			ID: lm.ID, From: int(lm.From), To: int(lm.To), Payload: data,
		})
	}

	if opts.GC {
		if opts.Store == c.store {
			// The new incarnation reuses the old store and restarts its
			// indexes at zero: purge the whole old history, or leftovers
			// at or above the line would shadow the new checkpoints in
			// the next recovery. (The line's state lives on as the new
			// incarnation's initial checkpoints.)
			if _, err := storage.Purge(c.store, c.cfg.N); err != nil {
				return nil, fmt.Errorf("cluster: recover: purge: %w", err)
			}
		} else if _, err := mgr.GC(plan.Line); err != nil {
			return nil, fmt.Errorf("cluster: recover: gc: %w", err)
		}
	}

	cfg := c.cfg
	cfg.Store = opts.Store
	if cfg.Store == nil {
		cfg.Store = storage.NewMemory()
	}
	cfg.Transport = opts.Transport // nil → New builds a default local one

	next, err := Resume(cfg, replay)
	if err != nil {
		return nil, fmt.Errorf("cluster: recover: %w", err)
	}
	c.ins.recovery(len(replay))
	return &RecoverResult{
		Cluster:  next,
		Plan:     plan,
		Pattern:  pattern,
		Lost:     lost,
		Replayed: replay,
	}, nil
}
