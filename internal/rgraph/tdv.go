package rgraph

import (
	"cmp"
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
	n    int
	vecs [][]vclock.Vec // [proc][index]
}

// At returns the offline dependency vector of the checkpoint. The returned
// vector is shared; callers must not modify it.
func (t *TDVTable) At(c model.CkptID) vclock.Vec { return t.vecs[c.Proc][c.Index] }

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
	events  []event   // backing arena for the per-process event lists
	perProc [][]event // event lists, sorted by per-process sequence
	pos     []int     // replay cursor per process
	sent    []bool    // by position of the message in p.Messages
	stamps  []int     // len(p.Messages) send-time vectors, n ints each
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
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("compute tdvs: %w", err)
	}
	return a.computeTDVs(p)
}

// computeTDVs is ComputeTDVs on a pattern the caller has validated.
func (a *Analyzer) computeTDVs(p *model.Pattern) (*TDVTable, error) {
	a.prepare(p)
	n := p.N

	// The table outlives the call, so its storage is freshly allocated —
	// but as two arenas (headers, ints) instead of one slice per checkpoint.
	total := 0
	for i := 0; i < n; i++ {
		total += len(p.Checkpoints[i])
	}
	table := &TDVTable{n: n, vecs: make([][]vclock.Vec, n)}
	headers := make([]vclock.Vec, total)
	mem := make([]int, total*n)
	offset := 0
	for i := 0; i < n; i++ {
		table.vecs[i] = headers[offset : offset+len(p.Checkpoints[i])]
		for x := range table.vecs[i] {
			table.vecs[i][x] = vclock.Vec(mem[(offset+x)*n : (offset+x+1)*n])
		}
		offset += len(p.Checkpoints[i])
	}

	cur := a.currentVectors(n)
	err := a.run(func(e event) {
		i := int(e.proc)
		switch e.kind {
		case evCheckpoint:
			copy(table.vecs[i][e.index], cur[i])
			cur[i][i] = e.index + 1 // TDV_i[i] is always the current interval index
		case evSend:
			copy(a.stamps[e.msgIdx*n:(e.msgIdx+1)*n], cur[i])
		case evDeliver:
			cur[i].MaxInto(vclock.Vec(a.stamps[e.msgIdx*n : (e.msgIdx+1)*n]))
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

// prepare rebuilds the per-process event lists for the pattern inside the
// reused arenas.
func (a *Analyzer) prepare(p *model.Pattern) {
	n := p.N
	if cap(a.perProc) < n {
		a.perProc = make([][]event, n)
	} else {
		a.perProc = a.perProc[:n]
	}
	if cap(a.pos) < n {
		a.pos = make([]int, n)
	} else {
		a.pos = a.pos[:n]
	}

	// First pass: events per process, reusing pos as the counter.
	counts := a.pos
	for i := range counts {
		counts[i] = len(p.Checkpoints[i])
	}
	for i := range p.Messages {
		m := &p.Messages[i]
		counts[m.From]++
		counts[m.To]++
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if cap(a.events) < total {
		a.events = make([]event, total)
	} else {
		a.events = a.events[:total]
	}
	offset := 0
	for i := 0; i < n; i++ {
		a.perProc[i] = a.events[offset : offset : offset+counts[i]]
		offset += counts[i]
	}

	// Second pass: fill and sort by per-process sequence number.
	for i := 0; i < n; i++ {
		for x := range p.Checkpoints[i] {
			ck := &p.Checkpoints[i][x]
			a.perProc[i] = append(a.perProc[i], event{kind: evCheckpoint, proc: ck.Proc, seq: ck.Seq, index: ck.Index})
		}
	}
	for i := range p.Messages {
		m := &p.Messages[i]
		a.perProc[m.From] = append(a.perProc[m.From], event{kind: evSend, proc: m.From, seq: m.SendSeq, msgIdx: i})
		a.perProc[m.To] = append(a.perProc[m.To], event{kind: evDeliver, proc: m.To, seq: m.DeliverSeq, msgIdx: i})
	}
	for i := range a.perProc {
		slices.SortFunc(a.perProc[i], func(x, y event) int { return cmp.Compare(x.seq, y.seq) })
	}

	for i := range a.pos {
		a.pos[i] = 0
	}
	if cap(a.sent) < len(p.Messages) {
		a.sent = make([]bool, len(p.Messages))
	} else {
		a.sent = a.sent[:len(p.Messages)]
		for i := range a.sent {
			a.sent[i] = false
		}
	}
	// The stamp arena needs no zeroing: a delivery's read is always
	// preceded by its send's full-width copy.
	if cap(a.stamps) < len(p.Messages)*n {
		a.stamps = make([]int, len(p.Messages)*n)
	} else {
		a.stamps = a.stamps[:len(p.Messages)*n]
	}
}

type eventKind int8

const (
	evCheckpoint eventKind = iota + 1
	evSend
	evDeliver
)

type event struct {
	kind   eventKind
	proc   model.ProcID
	seq    int
	index  int // checkpoint index, for evCheckpoint
	msgIdx int // position in p.Messages, for evSend / evDeliver
}

// run invokes fn once per event, in a valid causal interleaving: a
// delivery runs only after its send.
func (a *Analyzer) run(fn func(event)) error {
	remaining := 0
	for _, evs := range a.perProc {
		remaining += len(evs)
	}
	for remaining > 0 {
		progressed := false
		for i := range a.perProc {
			for a.pos[i] < len(a.perProc[i]) {
				e := a.perProc[i][a.pos[i]]
				if e.kind == evDeliver && !a.sent[e.msgIdx] {
					break
				}
				if e.kind == evSend {
					a.sent[e.msgIdx] = true
				}
				fn(e)
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
