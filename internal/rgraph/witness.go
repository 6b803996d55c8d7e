package rgraph

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/rdt-go/rdt/internal/model"
)

// Witness extraction: turning an RDT conviction into evidence. A
// violation (a, b) says there is an R-path from checkpoint a to
// checkpoint b that no causal message chain doubles. The witness makes
// the conviction concrete: the actual zigzag message chain [m1 ... mq]
// realizing the R-path, minimal in its number of messages, with the
// visible predicate (causal or zigzag continuation) evaluated at every
// hop.
//
// The correspondence used throughout (and cross-checked by the property
// tests): an R-path C_{i,x} ~> C_{j,y} that is not the process's own
// forward order exists iff some message chain starts with a message sent
// by i in an interval >= x and ends with a message delivered to j in an
// interval <= y. Violations are such pairs: either cross-process, or
// same-process *backward* (y < x, a zigzag cycle through C_{i,y}) —
// same-process forward pairs are always trackable (TDV_{i,y}[i] = y).
// No violation is witnessed by a single message (a one-message chain is
// causal and never backward, so the pair would be doubled); hence every
// witness has at least two messages and — because a fully causal
// witnessing chain would make the pair trackable — at least one
// non-causal continuation.

// Hop is one message of a witness chain, with the data needed to check
// the chain and continuation conditions by eye: interval indexes place
// the endpoints among the checkpoints, sequence positions order the
// events inside their process timelines.
type Hop struct {
	MsgID           int          `json:"msg_id"`
	From            model.ProcID `json:"from"`
	To              model.ProcID `json:"to"`
	SendInterval    int          `json:"send_interval"`
	DeliverInterval int          `json:"deliver_interval"`
	SendSeq         int          `json:"send_seq"`
	DeliverSeq      int          `json:"deliver_seq"`

	// CausalToNext is the visible predicate at this hop: whether the
	// continuation to the next message is causal (the delivery event
	// precedes the next send on the shared process). Vacuously true on
	// the last hop. A witness of a genuine violation has at least one
	// false entry — the zigzag.
	CausalToNext bool `json:"causal_to_next"`
}

// Witness is a minimal message chain realizing one untrackable R-path.
type Witness struct {
	Violation Violation `json:"violation"`
	Hops      []Hop     `json:"hops"`
	// NonCausal counts the hops whose continuation is not causal.
	NonCausal int `json:"non_causal"`
}

// MessageIDs returns the witness chain's message identifiers in order.
func (w *Witness) MessageIDs() []int {
	ids := make([]int, len(w.Hops))
	for i := range w.Hops {
		ids[i] = w.Hops[i].MsgID
	}
	return ids
}

// String renders the witness as the violation followed by the chain,
// marking each continuation causal (->) or zigzag (~>).
func (w *Witness) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v ~> %v via [", w.Violation.From, w.Violation.To)
	for i := range w.Hops {
		h := &w.Hops[i]
		if i > 0 {
			if w.Hops[i-1].CausalToNext {
				b.WriteString(" -> ")
			} else {
				b.WriteString(" ~> ")
			}
		}
		fmt.Fprintf(&b, "m%d(P%d[I%d]→P%d[I%d])", h.MsgID, h.From, h.SendInterval, h.To, h.DeliverInterval)
	}
	b.WriteString("]")
	return b.String()
}

// explainer extracts minimal witnesses for the violations of a pattern
// by a breadth-first search over continuations' suffixes. The messages a
// search has discovered among a process's sends are always a suffix of
// them, from low[q] on, so a scan of a successor suffix stops at low[q]
// and then lowers it: each message is scanned at most once, O(M + n) per
// witness.
type explainer struct {
	p        *model.Pattern
	bySender [][]int
	succ     [][]int // chain successors, suffixes of bySender

	low  []int // BFS scratch: start of the discovered suffix per process
	pred []int // BFS scratch: previous message position, -1 for roots
	work []int // BFS scratch: queue
}

// newExplainer builds the witness extractor for a validated pattern.
func newExplainer(p *model.Pattern) *explainer {
	e := &explainer{
		p:    p,
		low:  make([]int, p.N),
		pred: make([]int, len(p.Messages)),
		work: make([]int, 0, len(p.Messages)),
	}
	e.bySender, e.succ, _ = continuations(p)
	return e
}

// explain returns a minimal witness for the violation: the chain with
// the fewest messages among those realizing the R-path, ties broken by
// send order, so the witness depends on the pattern's events and not on
// how its messages are ordered in the slice. It fails if no chain
// realizes the pair — i.e. if v is not actually an R-path between
// distinct processes of this pattern.
func (e *explainer) explain(v Violation) (*Witness, error) {
	if v.From.Proc == v.To.Proc && v.From.Index <= v.To.Index {
		return nil, fmt.Errorf("explain %v: same-process forward R-paths are always trackable — not a violation", v)
	}
	msgs := e.p.Messages
	for q := range e.low {
		e.low[q] = len(e.bySender[q])
	}
	queue := e.work[:0]
	goal := -1
	// discover queues q's sends from lo up to the discovered suffix, in
	// send order, as continuations of from.
	discover := func(q model.ProcID, lo, from int) {
		sends := e.bySender[q]
		for _, b := range sends[lo:max(lo, e.low[q])] {
			e.pred[b] = from
			if m := &msgs[b]; m.To == v.To.Proc && m.DeliverInterval <= v.To.Index {
				goal = b
				return
			}
			queue = append(queue, b)
		}
		e.low[q] = min(lo, e.low[q])
	}
	// Roots: messages sent by From.Proc at or after checkpoint From (the
	// R-graph edge out of C_{i,x'} exists for every send in I_{i,x'},
	// x' >= x).
	roots := e.bySender[v.From.Proc]
	discover(v.From.Proc, sort.Search(len(roots), func(k int) bool {
		return msgs[roots[k]].SendInterval >= v.From.Index
	}), -1)
	for head := 0; goal < 0 && head < len(queue); head++ {
		a := queue[head]
		q := msgs[a].To
		discover(q, len(e.bySender[q])-len(e.succ[a]), a)
	}
	e.work = queue[:0]
	if goal < 0 {
		return nil, fmt.Errorf("explain %v: no message chain realizes the R-path", v)
	}
	var chain []int
	for at := goal; at >= 0; at = e.pred[at] {
		chain = append(chain, at)
	}
	slices.Reverse(chain)
	return newWitness(e.p, v, chain), nil
}

// newWitness renders the chain of message positions as the witness of v.
func newWitness(p *model.Pattern, v Violation, chain []int) *Witness {
	w := &Witness{Violation: v, Hops: make([]Hop, len(chain))}
	for i, pos := range chain {
		m := &p.Messages[pos]
		w.Hops[i] = Hop{
			MsgID:           m.ID,
			From:            m.From,
			To:              m.To,
			SendInterval:    m.SendInterval,
			DeliverInterval: m.DeliverInterval,
			SendSeq:         m.SendSeq,
			DeliverSeq:      m.DeliverSeq,
			CausalToNext:    true,
		}
		if i > 0 && p.Messages[chain[i-1]].DeliverSeq >= m.SendSeq {
			w.Hops[i-1].CausalToNext = false
			w.NonCausal++
		}
	}
	return w
}

// Explain runs the batch RDT check and extracts one minimal witness per
// reported violation. maxViolations caps the report as in CheckRDT.
func Explain(p *model.Pattern, maxViolations int) (*Report, []*Witness, error) {
	rep, err := CheckRDT(p, maxViolations)
	if err != nil {
		return nil, nil, err
	}
	ws, err := ExplainReport(p, rep)
	if err != nil {
		return nil, nil, err
	}
	return rep, ws, nil
}

// ExplainReport extracts one minimal witness per violation of a report
// the caller already has — the batch CheckRDT's, or the incremental
// checker's Report, which keeps no message metadata, so the caller
// supplies the pattern of the same event stream (a service session
// materializes it from its event log). An RDT report has no witnesses.
// p must be a pattern Validate accepts, and it is not validated again:
// every caller holds one already (CheckRDT's input, or a builder's).
func ExplainReport(p *model.Pattern, rep *Report) ([]*Witness, error) {
	if rep.RDT {
		return nil, nil
	}
	e := newExplainer(p)
	out := make([]*Witness, 0, len(rep.Violations))
	for _, v := range rep.Violations {
		w, err := e.explain(v)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// VerifyWitness independently re-checks a witness against the pattern,
// using only the raw message fields and the causal-chain closure — none
// of the structures Explain searched. It confirms that:
//
//  1. the hops form a valid message chain of the pattern with endpoints
//     matching the violation (first send by From.Proc at interval >=
//     From.Index, last delivery to To.Proc at interval <= To.Index);
//  2. the chain is a zigzag: at least one continuation is non-causal,
//     and every CausalToNext flag matches the event order;
//  3. the conviction stands: no causal chain doubles the pair, checked
//     through the chain-closure characterization (Chains.CausallyDoubled)
//     rather than the TDV replay that produced the violation.
func VerifyWitness(p *model.Pattern, w *Witness) error {
	c, err := NewChains(p)
	if err != nil {
		return err
	}
	return VerifyWitnessChains(p, c, w)
}

// VerifyWitnessChains is VerifyWitness with a caller-provided chain
// closure, for verifying many witnesses of one pattern.
func VerifyWitnessChains(p *model.Pattern, c *Chains, w *Witness) error {
	if len(w.Hops) == 0 {
		return fmt.Errorf("witness %v: empty chain", w.Violation)
	}
	byID := make(map[int]*model.Message, len(p.Messages))
	for i := range p.Messages {
		byID[p.Messages[i].ID] = &p.Messages[i]
	}
	msgs := make([]*model.Message, len(w.Hops))
	for i, h := range w.Hops {
		m, ok := byID[h.MsgID]
		if !ok {
			return fmt.Errorf("witness %v: hop %d: message m%d is not in the pattern", w.Violation, i, h.MsgID)
		}
		if m.From != h.From || m.To != h.To ||
			m.SendInterval != h.SendInterval || m.DeliverInterval != h.DeliverInterval ||
			m.SendSeq != h.SendSeq || m.DeliverSeq != h.DeliverSeq {
			return fmt.Errorf("witness %v: hop %d: fields differ from pattern message m%d", w.Violation, i, h.MsgID)
		}
		msgs[i] = m
	}
	first, last := msgs[0], msgs[len(msgs)-1]
	if first.From != w.Violation.From.Proc || first.SendInterval < w.Violation.From.Index {
		return fmt.Errorf("witness %v: chain does not start at the R-path source (m%d sent by P%d in I%d)",
			w.Violation, first.ID, first.From, first.SendInterval)
	}
	if last.To != w.Violation.To.Proc || last.DeliverInterval > w.Violation.To.Index {
		return fmt.Errorf("witness %v: chain does not end at the R-path target (m%d delivered to P%d in I%d)",
			w.Violation, last.ID, last.To, last.DeliverInterval)
	}
	nonCausal := 0
	for i := 0; i+1 < len(msgs); i++ {
		a, b := msgs[i], msgs[i+1]
		if a.To != b.From || a.DeliverInterval > b.SendInterval {
			return fmt.Errorf("witness %v: m%d -> m%d is not a chain continuation", w.Violation, a.ID, b.ID)
		}
		causal := a.DeliverSeq < b.SendSeq
		if causal != w.Hops[i].CausalToNext {
			return fmt.Errorf("witness %v: hop %d: causal_to_next=%v contradicts event order", w.Violation, i, w.Hops[i].CausalToNext)
		}
		if !causal {
			nonCausal++
		}
	}
	if nonCausal == 0 {
		return fmt.Errorf("witness %v: chain is fully causal — the pair would be trackable", w.Violation)
	}
	if nonCausal != w.NonCausal {
		return fmt.Errorf("witness %v: non_causal=%d but %d continuations are non-causal", w.Violation, w.NonCausal, nonCausal)
	}
	if c.CausallyDoubled(w.Violation.From, w.Violation.To) {
		return fmt.Errorf("witness %v: the pair is causally doubled — not a violation", w.Violation)
	}
	return nil
}
