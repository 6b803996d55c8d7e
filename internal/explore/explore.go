// Package explore exhaustively enumerates the interleavings of a small
// distributed scenario — fixed per-process scripts of sends and basic
// checkpoints, plus every possible delivery order over asynchronous
// channels — and replays a checkpointing protocol over each interleaving.
// It is model checking in miniature: where the simulator samples the
// schedule space, the explorer covers it, so protocol properties (RDT,
// Z-cycle freedom, correct dependency vectors) are verified for *every*
// execution of the scenario, not just the sampled ones.
//
// Each complete interleaving is a simulator tape (sim.Op) that the
// simulator's own loop replays, sim.Schedule.Run: a scripted checkpoint
// is a basic-checkpoint attempt under the simulator's rule.
package explore

import (
	"errors"
	"fmt"

	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/sim"
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

// Checkpoint returns a scripted basic-checkpoint attempt. As in the
// simulator, it is skipped when its process had no send or delivery since
// its last checkpoint: at the start of a script, right after another
// checkpoint, or under CAS right after the one that follows every send.
func Checkpoint() Op { return Op{Kind: OpCheckpoint} }

// Result summarizes an exhaustive exploration.
type Result struct {
	// Executions is the number of complete schedules enumerated.
	Executions int
}

// Check inspects one complete execution: the tape of the schedule that
// produced it, in which a send's slot is its message's index, and the
// finalized pattern the protocol left behind (with all forced checkpoints
// and dependency-vector annotations). The tape is lent for the call: the
// explorer rewrites it for the next execution, so a check that keeps it
// keeps a copy. Returning an error aborts the exploration with that
// error, wrapped with the schedule.
type Check func(schedule []sim.Op, p *model.Pattern) error

// ErrTooManyExecutions guards against accidentally unbounded scenarios.
var ErrTooManyExecutions = errors.New("scenario exceeds the execution budget")

// maxExecutions bounds the number of schedules a scenario may generate.
const maxExecutions = 2_000_000

// Run enumerates every interleaving of the scripts (one per process) with
// every admissible delivery order, replays the protocol over each, and
// calls check on every complete execution. A scenario whose tapes
// sim.NewSchedule refuses fails at its first execution.
func Run(kind core.Kind, scripts [][]Op, check Check) (*Result, error) {
	e := &explorer{kind: kind, scripts: scripts, pos: make([]int, len(scripts)), check: check}
	if err := e.dfs(); err != nil {
		return nil, err
	}
	return &Result{Executions: e.executions}, nil
}

type explorer struct {
	kind    core.Kind
	scripts [][]Op

	pos        []int    // next script index per process
	sends      []sim.Op // every send so far, by slot: a message's index
	arrived    []bool   // by slot, whether the message has arrived
	tape       []sim.Op
	executions int
	check      Check
}

func (e *explorer) dfs() error {
	progressed := false

	// Option A: advance any process's script.
	for i, script := range e.scripts {
		if e.pos[i] >= len(script) {
			continue
		}
		progressed = true
		op, sent := script[e.pos[i]], len(e.sends)
		e.pos[i]++
		// Any other kind stays unknown, and NewSchedule refuses the tape.
		step := sim.Op{Proc: int32(i)}
		switch op.Kind {
		case OpSend:
			// Clamped, an out-of-range destination stays out of range.
			to := int32(max(min(op.To, len(e.scripts)), -1))
			step = sim.Op{Kind: sim.OpSend, Proc: int32(i), Peer: to, Slot: int32(sent)}
			e.sends, e.arrived = append(e.sends, step), append(e.arrived, false)
		case OpCheckpoint:
			step.Kind = sim.OpBasic
		}
		e.tape = append(e.tape, step)
		err := e.dfs()
		// Undo.
		e.sends, e.arrived = e.sends[:sent], e.arrived[:sent]
		e.tape = e.tape[:len(e.tape)-1]
		e.pos[i]--
		if err != nil {
			return err
		}
	}

	// Option B: deliver any message in flight.
	for slot, send := range e.sends {
		if e.arrived[slot] {
			continue
		}
		progressed = true
		e.arrived[slot] = true
		e.tape = append(e.tape, sim.Op{Kind: sim.OpArrive, Proc: send.Peer, Peer: send.Proc, Slot: send.Slot})
		err := e.dfs()
		e.tape = e.tape[:len(e.tape)-1]
		e.arrived[slot] = false
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
	s, err := sim.NewSchedule(len(e.scripts), e.tape)
	if err != nil {
		return fmt.Errorf("explore: schedule %v: %w", e.tape, err)
	}
	res, err := s.Run(e.kind, nil)
	s.Release()
	if err != nil {
		return fmt.Errorf("explore: schedule %v: %w", e.tape, err)
	}
	if err := e.check(e.tape, res.Pattern); err != nil {
		return fmt.Errorf("explore: schedule %v: %w", e.tape, err)
	}
	return nil
}
