package rgraph

import (
	"fmt"

	"github.com/rdt-go/rdt/internal/model"
)

// ReplayIncremental streams a finalized pattern through a fresh
// incremental checker, event by event in a causally consistent order,
// and seals it. It is the bridge from a recorded run back to the online
// verdict: deterministic scenario execution replays its final pattern
// here and cross-checks the result against the batch analyzer, so the
// two characterizations can never silently diverge. It fails with
// Validate's error on a pattern Validate refuses.
func ReplayIncremental(p *model.Pattern) (*Incremental, error) {
	var a Analyzer
	if err := a.prepare(p); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	inc, err := NewIncremental(p.N)
	if err != nil {
		return nil, err
	}
	handles := make([]int, len(p.Messages))
	var ferr error
	fail := func(err error) {
		if ferr == nil {
			ferr = err
		}
	}
	if err := a.run(func(proc model.ProcID, e event) {
		if ferr != nil {
			return
		}
		switch e.kind {
		case evCheckpoint:
			if e.at == 0 {
				return // initial checkpoints exist by construction
			}
			if _, _, err := inc.Checkpoint(proc); err != nil {
				fail(fmt.Errorf("replay checkpoint (%d,%d): %w", proc, e.at, err))
			}
		case evSend:
			m := &p.Messages[e.at]
			h, err := inc.Send(m.From, m.To)
			if err != nil {
				fail(fmt.Errorf("replay send m%d: %w", m.ID, err))
				return
			}
			handles[e.at] = h
		case evDeliver:
			if err := inc.Deliver(handles[e.at]); err != nil {
				fail(fmt.Errorf("replay deliver m%d: %w", p.Messages[e.at].ID, err))
			}
		}
	}); err != nil {
		return nil, err
	}
	if ferr != nil {
		return nil, ferr
	}
	inc.Seal()
	return inc, nil
}
