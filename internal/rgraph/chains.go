package rgraph

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"github.com/rdt-go/rdt/internal/model"
)

// Chains analyzes message chains (Definition 3.1) of a pattern: sequences
// of messages [m1 ... mq] where each m_{u+1} is sent by the receiver of m_u
// in the same or a later checkpoint interval. A chain is causal when every
// delivery precedes the send of the next message; otherwise it is a zigzag
// (non-causal) chain — Netzer and Xu's zigzag paths.
type Chains struct {
	p *model.Pattern
	// chainReach/causalReach are reflexive-transitive closures over the
	// chain-continuation relation between messages.
	chainReach  []bitset
	causalReach []bitset
	// bySender[i] / byReceiver[i] index the messages sent by / delivered
	// to process i, so endpoint queries touch only relevant messages.
	bySender   [][]int
	byReceiver [][]int
}

// NewChains builds the chain-closure structures. A message's
// continuations are the messages its receiver sends from the delivery's
// interval on (chain) or after the delivery (causal); ordered by send,
// both are a suffix of the receiver's sends, so the continuation graph
// needs no edge list. Each closure is one pass over it: O(E·M/64) time
// for E continuation pairs, and at most M rows of M bits. That still
// makes it an analysis for test- and experiment-sized traces, not for
// the hot path.
func NewChains(p *model.Pattern) (*Chains, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("chains: %w", err)
	}
	mcount := len(p.Messages)
	c := &Chains{
		p:          p,
		bySender:   make([][]int, p.N),
		byReceiver: make([][]int, p.N),
	}
	for i := range p.Messages {
		m := &p.Messages[i]
		c.bySender[m.From] = append(c.bySender[m.From], i)
		c.byReceiver[m.To] = append(c.byReceiver[m.To], i)
	}
	sendSeq := func(a, b int) int { return cmp.Compare(p.Messages[a].SendSeq, p.Messages[b].SendSeq) }
	for _, sends := range c.bySender {
		slices.SortFunc(sends, sendSeq)
	}

	chainSucc := make([][]int, mcount)
	causalSucc := make([][]int, mcount)
	for a := range p.Messages {
		ma := &p.Messages[a]
		sends := c.bySender[ma.To]
		// Chain condition: deliver(ma) in I_{k,s}, send(mb) in I_{k,t},
		// s <= t. Send intervals grow with the send's seq.
		chainSucc[a] = sends[sort.Search(len(sends), func(k int) bool {
			return p.Messages[sends[k]].SendInterval >= ma.DeliverInterval
		}):]
		// Causal continuation: the delivery precedes the send on the shared
		// process timeline, which puts the send in the delivery's interval
		// or a later one.
		causalSucc[a] = sends[sort.Search(len(sends), func(k int) bool {
			return p.Messages[sends[k]].SendSeq > ma.DeliverSeq
		}):]
	}
	c.chainReach = closure(chainSucc)
	c.causalReach = closure(causalSucc)
	return c, nil
}

// closure computes the reflexive-transitive closure rows of the graph
// with edges a -> succ[a]; it serves both chain graphs and the R-graph
// (Build). The chain graph has cycles: a zigzag chain can return to an
// earlier interval of the process it started on. (A causal one cannot in
// a run that happened, but a trace file need not be one.) An iterative
// Tarjan walk emits the strongly connected components sinks first, so
// when a component is emitted the rows of everything it reaches outside
// itself are final: its row is its members' bits OR those rows, computed
// once and shared by its members.
func closure(succ [][]int) []bitset {
	n := len(succ)
	rows := make([]bitset, n) // nil until the node's component is emitted
	comp := make([]int, n)    // component of a node with a row
	orred := make([]int, n)   // 1 + last component that OR'ed a component's row
	index := make([]int, n)   // 1 + DFS discovery order; 0 is unvisited
	low := make([]int, n)
	var open []int // Tarjan's stack: visited nodes without a row
	type frame struct{ v, next int }
	var path []frame // the DFS recursion, unrolled
	visited, comps := 0, 0
	visit := func(v int) {
		visited++
		index[v], low[v] = visited, visited
		open = append(open, v)
		path = append(path, frame{v: v})
	}
	for root := range succ {
		if index[root] != 0 {
			continue
		}
		visit(root)
		for len(path) > 0 {
			f := &path[len(path)-1]
			v := f.v
			if f.next < len(succ[v]) {
				w := succ[v][f.next]
				f.next++
				switch {
				case index[w] == 0:
					visit(w)
				case rows[w] == nil: // on the stack: same component
					low[v] = min(low[v], index[w])
				}
				continue
			}
			path = path[:len(path)-1]
			if len(path) > 0 {
				u := path[len(path)-1].v
				low[u] = min(low[u], low[v])
			}
			if low[v] != index[v] {
				continue
			}
			k := len(open) - 1
			for open[k] != v {
				k--
			}
			members := open[k:]
			open = open[:k]
			row := newBitset(n)
			for _, m := range members {
				row.set(m)
			}
			for _, m := range members {
				for _, w := range succ[m] {
					if rows[w] != nil && orred[comp[w]] != comps+1 {
						orred[comp[w]] = comps + 1
						row.or(rows[w])
					}
				}
			}
			for _, m := range members {
				rows[m], comp[m] = row, comps
			}
			comps++
		}
	}
	return rows
}

// HasChain reports whether a message chain (causal or not) connects a to b:
// a chain [m1 ... mq] with send(m1) in I_{a.Proc,a.Index} and deliver(mq)
// in I_{b.Proc,b.Index}.
func (c *Chains) HasChain(a, b model.CkptID) bool { return c.hasChain(a, b, c.chainReach) }

// HasCausalChain reports whether a causal message chain connects a to b.
func (c *Chains) HasCausalChain(a, b model.CkptID) bool { return c.hasChain(a, b, c.causalReach) }

func (c *Chains) hasChain(a, b model.CkptID, reach []bitset) bool {
	for _, i := range c.bySender[a.Proc] {
		if c.p.Messages[i].SendInterval != a.Index {
			continue
		}
		row := reach[i]
		for _, j := range c.byReceiver[b.Proc] {
			if c.p.Messages[j].DeliverInterval == b.Index && row.get(j) {
				return true
			}
		}
	}
	return false
}

// ZigzagNX reports whether there is a Netzer–Xu zigzag path from checkpoint
// a to checkpoint b: a message chain whose first message is sent *after* a
// (interval > a.Index) and whose last message is delivered *before* b
// (interval <= b.Index). A set of checkpoints extends to a consistent
// global checkpoint iff no member has a zigzag path to another member
// (including itself): ZigzagNX(a, a) says a is useless.
func (c *Chains) ZigzagNX(a, b model.CkptID) bool {
	for _, i := range c.bySender[a.Proc] {
		if c.p.Messages[i].SendInterval <= a.Index {
			continue
		}
		row := c.chainReach[i]
		for _, j := range c.byReceiver[b.Proc] {
			if c.p.Messages[j].DeliverInterval <= b.Index && row.get(j) {
				return true
			}
		}
	}
	return false
}

// CanExtend reports whether the given set of checkpoints can be extended to
// a consistent global checkpoint (Netzer–Xu): no zigzag path may connect
// any member to any member.
func (c *Chains) CanExtend(set []model.CkptID) bool {
	for _, a := range set {
		for _, b := range set {
			if c.ZigzagNX(a, b) {
				return false
			}
		}
	}
	return true
}

// CountChains returns how many ordered checkpoint pairs are linked by some
// chain and by some causal chain — a coarse measure of how much of the
// dependency structure is causally visible.
func (c *Chains) CountChains() (chains, causal int) {
	p := c.p
	for i := 0; i < p.N; i++ {
		for x := range p.Checkpoints[i] {
			a := model.CkptID{Proc: model.ProcID(i), Index: x}
			for j := 0; j < p.N; j++ {
				for y := range p.Checkpoints[j] {
					b := model.CkptID{Proc: model.ProcID(j), Index: y}
					if c.HasChain(a, b) {
						chains++
						if c.HasCausalChain(a, b) {
							causal++
						}
					}
				}
			}
		}
	}
	return chains, causal
}
