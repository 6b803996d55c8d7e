// Package explore exhaustively enumerates the interleavings of a small
// distributed scenario — fixed per-process scripts of sends and basic
// checkpoints, plus every possible delivery order over asynchronous
// channels — and replays a checkpointing protocol over each interleaving.
// It is model checking in miniature: where the simulator samples the
// schedule space, the explorer covers it, so protocol properties (RDT,
// Z-cycle freedom, correct dependency vectors) are verified for *every*
// execution of the scenario, not just the sampled ones.
package explore

import (
	"errors"
	"fmt"

	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/model"
)

// OpKind classifies a scripted action.
type OpKind int

// Scripted actions: sending an application message and taking a basic
// checkpoint. (Deliveries are not scripted — the explorer enumerates every
// admissible position for them.)
const (
	OpSend OpKind = iota + 1
	OpCheckpoint
)

// Op is one scripted action of a process.
type Op struct {
	Kind OpKind
	To   int // destination, for OpSend
}

// Send returns a scripted send to the given process.
func Send(to int) Op { return Op{Kind: OpSend, To: to} }

// Checkpoint returns a scripted basic checkpoint.
func Checkpoint() Op { return Op{Kind: OpCheckpoint} }

// Choice is one step of a schedule: either the next scripted action of
// process Proc, or the delivery of message Msg.
type Choice struct {
	Deliver bool
	Proc    int // for script steps
	Msg     int // message id, for deliveries
}

// Result summarizes an exhaustive exploration.
type Result struct {
	// Executions is the number of complete schedules enumerated.
	Executions int
}

// Check inspects one complete execution: the schedule that produced it and
// the finalized pattern the protocol left behind (with all forced
// checkpoints and dependency-vector annotations). Returning an error
// aborts the exploration with that error, wrapped with the schedule.
type Check func(schedule []Choice, p *model.Pattern) error

// ErrTooManyExecutions guards against accidentally unbounded scenarios.
var ErrTooManyExecutions = errors.New("scenario exceeds the execution budget")

// maxExecutions bounds the number of schedules a scenario may generate.
const maxExecutions = 2_000_000

// Run enumerates every interleaving of the scripts (one per process) with
// every admissible delivery order, replays the protocol over each, and
// calls check on every complete execution.
func Run(kind core.Kind, scripts [][]Op, check Check) (*Result, error) {
	n := len(scripts)
	if n < 2 {
		return nil, fmt.Errorf("explore: need at least 2 processes, have %d", n)
	}
	for i, script := range scripts {
		for _, op := range script {
			if op.Kind == OpSend && (op.To < 0 || op.To >= n || op.To == i) {
				return nil, fmt.Errorf("explore: process %d has a send to invalid destination %d", i, op.To)
			}
		}
	}
	e := &explorer{
		kind:    kind,
		scripts: scripts,
		n:       n,
		pos:     make([]int, n),
		check:   check,
	}
	if err := e.dfs(); err != nil {
		return nil, err
	}
	return &Result{Executions: e.executions}, nil
}

// pendingMsg is a sent, not yet delivered message during enumeration.
type pendingMsg struct {
	id int
	to int
}

type explorer struct {
	kind    core.Kind
	scripts [][]Op
	n       int

	pos        []int // next script index per process
	pending    []pendingMsg
	nextMsg    int
	schedule   []Choice
	executions int
	check      Check
}

func (e *explorer) dfs() error {
	progressed := false

	// Option A: advance any process's script.
	for i := 0; i < e.n; i++ {
		if e.pos[i] >= len(e.scripts[i]) {
			continue
		}
		progressed = true
		op := e.scripts[i][e.pos[i]]
		e.pos[i]++
		e.schedule = append(e.schedule, Choice{Proc: i})
		if op.Kind == OpSend {
			e.pending = append(e.pending, pendingMsg{id: e.nextMsg, to: op.To})
			e.nextMsg++
		}
		err := e.dfs()
		// Undo.
		if op.Kind == OpSend {
			e.pending = e.pending[:len(e.pending)-1]
			e.nextMsg--
		}
		e.schedule = e.schedule[:len(e.schedule)-1]
		e.pos[i]--
		if err != nil {
			return err
		}
	}

	// Option B: deliver any pending message.
	for k := 0; k < len(e.pending); k++ {
		progressed = true
		msg := e.pending[k]
		e.pending = append(e.pending[:k:k], e.pending[k+1:]...)
		e.schedule = append(e.schedule, Choice{Deliver: true, Msg: msg.id})
		err := e.dfs()
		e.schedule = e.schedule[:len(e.schedule)-1]
		// Undo: reinsert at position k.
		e.pending = append(e.pending, pendingMsg{})
		copy(e.pending[k+1:], e.pending[k:])
		e.pending[k] = msg
		if err != nil {
			return err
		}
	}

	if progressed {
		return nil
	}
	// Leaf: a complete execution. Replay it under the protocol.
	e.executions++
	if e.executions > maxExecutions {
		return fmt.Errorf("explore: %w (over %d)", ErrTooManyExecutions, maxExecutions)
	}
	p, err := e.replay()
	if err != nil {
		return fmt.Errorf("explore: schedule %v: %w", e.schedule, err)
	}
	if err := e.check(e.schedule, p); err != nil {
		return fmt.Errorf("explore: schedule %v: %w", e.schedule, err)
	}
	return nil
}

// replay executes the current schedule against fresh protocol instances
// and returns the finalized pattern.
func (e *explorer) replay() (*model.Pattern, error) {
	builder := model.NewBuilder(e.n)
	insts := make([]core.Instance, e.n)
	for i := 0; i < e.n; i++ {
		inst, err := core.New(e.kind, i, e.n, func(rec core.CheckpointRecord) {
			if rec.Kind == model.KindInitial {
				return
			}
			builder.Checkpoint(model.ProcID(rec.Proc), rec.Kind, rec.TDV)
		})
		if err != nil {
			return nil, err
		}
		insts[i] = inst
	}

	type flight struct {
		from   int
		to     int
		handle int
		pb     core.Piggyback
	}
	var (
		pos     = make([]int, e.n)
		flights = make(map[int]flight)
		nextMsg int
	)
	for _, c := range e.schedule {
		if c.Deliver {
			f, ok := flights[c.Msg]
			if !ok {
				return nil, fmt.Errorf("replay: delivery of unknown message %d", c.Msg)
			}
			delete(flights, c.Msg)
			insts[f.to].OnArrival(f.from, f.pb)
			if err := builder.Deliver(f.handle); err != nil {
				return nil, err
			}
			continue
		}
		op := e.scripts[c.Proc][pos[c.Proc]]
		pos[c.Proc]++
		switch op.Kind {
		case OpSend:
			pb, forceAfter := insts[c.Proc].OnSend(op.To)
			handle := builder.Send(model.ProcID(c.Proc), model.ProcID(op.To))
			if forceAfter {
				insts[c.Proc].CheckpointAfterSend()
			}
			flights[nextMsg] = flight{from: c.Proc, to: op.To, handle: handle, pb: pb}
			nextMsg++
		case OpCheckpoint:
			insts[c.Proc].TakeBasicCheckpoint()
		default:
			return nil, fmt.Errorf("replay: unknown op kind %d", op.Kind)
		}
	}
	return builder.Finalize()
}
