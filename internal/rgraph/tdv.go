package rgraph

import (
	"fmt"
	"slices"

	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/vclock"
)

// TDVTable holds, for every local checkpoint of a pattern, the transitive
// dependency vector an ideal on-line tracker would have recorded with it:
// entry k of the vector of C_{i,x} is the highest interval index z of
// process k such that a causal message chain links C_{k,z} to the state
// recorded by C_{i,x} (entry i is x itself).
type TDVTable struct {
	n     int
	first []int // the row of C_{i,0}
	mem   []int // n entries per checkpoint, rows in (process, index) order
}

// At returns the offline dependency vector of the checkpoint. The returned
// vector is shared; callers must not modify it.
func (t *TDVTable) At(c model.CkptID) vclock.Vec {
	k := (t.first[c.Proc] + c.Index) * t.n
	return vclock.Vec(t.mem[k : k+t.n : k+t.n])
}

// Trackable reports whether the R-path a -> b is on-line trackable: by the
// paper's characterization, C_{i,x} -> C_{j,y} is on-line trackable iff
// TDV_{j,y}[i] >= x (for i == j this degenerates to x <= y).
func (t *TDVTable) Trackable(a, b model.CkptID) bool {
	return t.At(b)[a.Proc] >= a.Index
}

// Analyzer computes the offline analyses while reusing its replay scratch
// (event lists, send stamps, running vectors) across calls. The experiment
// grid runs thousands of patterns through ComputeTDVs; a per-worker
// Analyzer removes the per-pattern allocation churn of those calls. An
// Analyzer is not safe for concurrent use: give each goroutine its own.
//
// A returned TDVTable is freshly allocated and stays valid after further
// calls; only the internal scratch is reused.
type Analyzer struct {
	eps     []model.Endpoint // message endpoints by (process, interval)
	start   []int            // bucket bounds of eps
	events  []event          // backing arena for the per-process event lists
	perProc [][]event        // event lists, in per-process sequence order
	pos     []int            // replay cursor per process
	sent    []bool           // by position of the message in p.Messages
	stamps  []int            // len(p.Messages) send-time vectors, n ints each
	cur     []vclock.Vec
	curMem  []int // backing arena for cur
}

// NewAnalyzer returns an empty Analyzer; scratch grows on first use.
func NewAnalyzer() *Analyzer { return &Analyzer{} }

// ComputeTDVs replays the pattern in a causally consistent interleaving and
// computes the offline dependency vector of every checkpoint. It fails if
// the pattern admits no such interleaving (which Validate-clean patterns
// recorded from real runs always do).
func ComputeTDVs(p *model.Pattern) (*TDVTable, error) {
	return NewAnalyzer().ComputeTDVs(p)
}

// ComputeTDVs is the package-level ComputeTDVs with scratch reuse.
func (a *Analyzer) ComputeTDVs(p *model.Pattern) (*TDVTable, error) {
	if err := a.prepare(p); err != nil {
		return nil, fmt.Errorf("compute tdvs: %w", err)
	}
	return a.computeTDVs(p)
}

// computeTDVs is ComputeTDVs on the pattern a has just prepared.
func (a *Analyzer) computeTDVs(p *model.Pattern) (*TDVTable, error) {
	n := p.N
	// The table outlives the call, so its storage is freshly allocated.
	table := &TDVTable{n: n, first: make([]int, n)}
	for i := 1; i < n; i++ {
		table.first[i] = table.first[i-1] + len(p.Checkpoints[i-1])
	}
	table.mem = make([]int, (len(a.start)-1)*n)
	a.stamps = slices.Grow(a.stamps[:0], len(p.Messages)*n)[:len(p.Messages)*n]
	cur := a.currentVectors(n)
	err := a.run(func(i model.ProcID, e event) {
		switch e.kind {
		case evCheckpoint:
			copy(table.At(model.CkptID{Proc: i, Index: int(e.at)}), cur[i])
			cur[i][i] = int(e.at) + 1 // TDV_i[i] is always the current interval index
		case evSend:
			copy(a.stamps[int(e.at)*n:], cur[i])
		case evDeliver:
			s := int(e.at) * n
			cur[i].MaxInto(vclock.Vec(a.stamps[s : s+n]))
		}
	})
	if err != nil {
		return nil, err
	}
	return table, nil
}

// currentVectors returns n zeroed running vectors of length n backed by the
// reused arena.
func (a *Analyzer) currentVectors(n int) []vclock.Vec {
	if cap(a.curMem) < n*n {
		a.curMem = make([]int, n*n)
	} else {
		a.curMem = a.curMem[:n*n]
		for i := range a.curMem {
			a.curMem[i] = 0
		}
	}
	if cap(a.cur) < n {
		a.cur = make([]vclock.Vec, n)
	} else {
		a.cur = a.cur[:n]
	}
	for i := 0; i < n; i++ {
		a.cur[i] = vclock.Vec(a.curMem[i*n : (i+1)*n])
	}
	return a.cur
}

// prepare validates p and rebuilds its per-process event lists inside
// the reused arenas, or returns Validate's error: the lists come from the
// layout ValidateEndpoints returns, which indexes buckets by interval.
// Each list is C_{i,0}, the endpoints of I_{i,1}, C_{i,1}, ..., so no
// list needs a sort.
func (a *Analyzer) prepare(p *model.Pattern) error {
	n := p.N
	var err error
	if a.eps, a.start, err = p.ValidateEndpoints(a.eps, a.start); err != nil {
		return err
	}
	a.events = slices.Grow(a.events[:0], len(a.start)-1+len(a.eps))
	a.perProc = slices.Grow(a.perProc[:0], n)[:n]
	b := 0
	for i, cs := range p.Checkpoints {
		from := len(a.events)
		for x := range cs {
			a.events = append(a.events, event{kind: evCheckpoint, at: int32(x)})
			for _, ep := range a.eps[a.start[b]:a.start[b+1]] {
				e := event{kind: evSend, at: ep.Msg}
				if ep.Deliver {
					e.kind = evDeliver
				}
				a.events = append(a.events, e)
			}
			b++
		}
		a.perProc[i] = a.events[from:]
	}
	a.pos = slices.Grow(a.pos[:0], n)[:n]
	clear(a.pos)
	a.sent = slices.Grow(a.sent[:0], len(p.Messages))[:len(p.Messages)]
	clear(a.sent)
	return nil
}

type eventKind int8

const (
	evCheckpoint eventKind = iota + 1
	evSend
	evDeliver
)

// event is one event of a process's list.
type event struct {
	kind eventKind
	at   int32 // checkpoint index, or the message's position in p.Messages
}

// run invokes fn once per event, in a valid causal interleaving: a
// delivery runs only after its send.
func (a *Analyzer) run(fn func(model.ProcID, event)) error {
	remaining := 0
	for _, evs := range a.perProc {
		remaining += len(evs)
	}
	for remaining > 0 {
		progressed := false
		for i := range a.perProc {
			for a.pos[i] < len(a.perProc[i]) {
				e := a.perProc[i][a.pos[i]]
				if e.kind == evDeliver && !a.sent[e.at] {
					break
				}
				if e.kind == evSend {
					a.sent[e.at] = true
				}
				fn(model.ProcID(i), e)
				a.pos[i]++
				remaining--
				progressed = true
			}
		}
		if !progressed {
			return fmt.Errorf("replay: no causally consistent interleaving (stuck with %d events left)", remaining)
		}
	}
	return nil
}
