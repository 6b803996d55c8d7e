package rgraph

import (
	"fmt"
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

// Explainer extracts minimal witnesses for the violations of a pattern.
// Construction is O(M^2) over the messages; each Explain
// call is a breadth-first search, O(M + edges).
type Explainer struct {
	p *model.Pattern
	// adj is the chain-continuation relation between message positions:
	// adj[a] lists the b with To(a) == From(b) and
	// DeliverInterval(a) <= SendInterval(b), ascending, so the search
	// order — and with it the reported witness — is deterministic.
	adj      [][]int32
	bySender [][]int32

	dist []int32 // BFS scratch: -1 unvisited, else chain length so far
	pred []int32 // BFS scratch: previous message position, -1 for roots
	work []int32 // BFS scratch: queue
}

// NewExplainer builds the witness extractor for a validated pattern.
func NewExplainer(p *model.Pattern) (*Explainer, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("explainer: %w", err)
	}
	mcount := len(p.Messages)
	e := &Explainer{
		p:        p,
		adj:      make([][]int32, mcount),
		bySender: make([][]int32, p.N),
		dist:     make([]int32, mcount),
		pred:     make([]int32, mcount),
		work:     make([]int32, 0, mcount),
	}
	for a := 0; a < mcount; a++ {
		e.bySender[p.Messages[a].From] = append(e.bySender[p.Messages[a].From], int32(a))
		ma := &p.Messages[a]
		for b := 0; b < mcount; b++ {
			mb := &p.Messages[b]
			if ma.To == mb.From && ma.DeliverInterval <= mb.SendInterval {
				e.adj[a] = append(e.adj[a], int32(b))
			}
		}
	}
	return e, nil
}

// Explain returns a minimal witness for the violation: the chain with
// the fewest messages among those realizing the R-path, ties broken by
// message position so repeated calls return the same chain. It fails if
// no chain realizes the pair — i.e. if v is not actually an R-path
// between distinct processes of this pattern.
func (e *Explainer) Explain(v Violation) (*Witness, error) {
	if v.From.Proc == v.To.Proc && v.From.Index <= v.To.Index {
		return nil, fmt.Errorf("explain %v: same-process forward R-paths are always trackable — not a violation", v)
	}
	msgs := e.p.Messages
	for i := range e.dist {
		e.dist[i] = -1
	}
	queue := e.work[:0]
	goal := int32(-1)
	// Roots: messages sent by From.Proc at or after checkpoint From (the
	// R-graph edge out of C_{i,x'} exists for every send in I_{i,x'},
	// x' >= x). Positions ascend, so the root order is deterministic.
	for _, a := range e.bySender[v.From.Proc] {
		if msgs[a].SendInterval < v.From.Index {
			continue
		}
		e.dist[a] = 1
		e.pred[a] = -1
		if e.isGoal(a, v.To) {
			goal = a
			break
		}
		queue = append(queue, a)
	}
	for head := 0; goal < 0 && head < len(queue); head++ {
		a := queue[head]
		for _, b := range e.adj[a] {
			if e.dist[b] >= 0 {
				continue
			}
			e.dist[b] = e.dist[a] + 1
			e.pred[b] = a
			if e.isGoal(b, v.To) {
				goal = b
				break
			}
			queue = append(queue, b)
		}
	}
	e.work = queue[:0]
	if goal < 0 {
		return nil, fmt.Errorf("explain %v: no message chain realizes the R-path", v)
	}

	// Walk predecessors back to the root, then reverse into hops.
	chain := make([]int32, 0, e.dist[goal])
	for at := goal; at >= 0; at = e.pred[at] {
		chain = append(chain, at)
	}
	for l, r := 0, len(chain)-1; l < r; l, r = l+1, r-1 {
		chain[l], chain[r] = chain[r], chain[l]
	}
	w := &Witness{Violation: v, Hops: make([]Hop, len(chain))}
	for i, pos := range chain {
		m := &msgs[pos]
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
		if i > 0 && msgs[chain[i-1]].DeliverSeq >= m.SendSeq {
			w.Hops[i-1].CausalToNext = false
			w.NonCausal++
		}
	}
	return w, nil
}

// isGoal reports whether the message closes a chain into checkpoint b:
// delivered to b's process in an interval at or before b.
func (e *Explainer) isGoal(pos int32, b model.CkptID) bool {
	m := &e.p.Messages[pos]
	return m.To == b.Proc && m.DeliverInterval <= b.Index
}

// ExplainAll extracts one minimal witness per violation.
func (e *Explainer) ExplainAll(violations []Violation) ([]*Witness, error) {
	out := make([]*Witness, 0, len(violations))
	for _, v := range violations {
		w, err := e.Explain(v)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// Explain runs the batch RDT check and extracts one minimal witness per
// reported violation. maxViolations caps the report as in CheckRDT.
func Explain(p *model.Pattern, maxViolations int) (*Report, []*Witness, error) {
	rep, err := CheckRDT(p, maxViolations)
	if err != nil {
		return nil, nil, err
	}
	if rep.RDT {
		return rep, nil, nil
	}
	e, err := NewExplainer(p)
	if err != nil {
		return nil, nil, err
	}
	ws, err := e.ExplainAll(rep.Violations)
	if err != nil {
		return nil, nil, err
	}
	return rep, ws, nil
}

// Explain extracts minimal witnesses for the incremental checker's
// current violations, on demand. The checker does not retain message
// metadata (its hot path keeps only dependency and closure vectors), so
// the caller supplies the pattern snapshot of the same event stream —
// a service session materializes it from its event log. The report is
// the seal-now Report(maxViolations).
func (inc *Incremental) Explain(p *model.Pattern, maxViolations int) (*Report, []*Witness, error) {
	rep := inc.Report(maxViolations)
	if rep.RDT {
		return rep, nil, nil
	}
	e, err := NewExplainer(p)
	if err != nil {
		return nil, nil, err
	}
	ws, err := e.ExplainAll(rep.Violations)
	if err != nil {
		return nil, nil, err
	}
	return rep, ws, nil
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
