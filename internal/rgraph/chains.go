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

// NewChains builds the chain-closure structures over the suffixes
// continuations lists, so the continuation graph needs no edge list.
// Each closure is one pass over it: O(E·M/64) time for E continuation
// pairs, and at most M rows of M bits. That still makes it an analysis for test- and
// experiment-sized traces, not for the hot path.
func NewChains(p *model.Pattern) (*Chains, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("chains: %w", err)
	}
	c := &Chains{p: p, byReceiver: make([][]int, p.N)}
	for i := range p.Messages {
		c.byReceiver[p.Messages[i].To] = append(c.byReceiver[p.Messages[i].To], i)
	}
	var chainSucc, causalSucc [][]int
	c.bySender, chainSucc, causalSucc = continuations(p)
	c.chainReach = closure(chainSucc)
	c.causalReach = closure(causalSucc)
	return c, nil
}

// continuations is the chain-continuation relation (Definition 3.1), the
// one both the chain closures and the witness search walk. bySender[i]
// lists the messages process i sends, in send order. A message's chain
// successors are the messages its receiver sends from the delivery's
// interval on, its causal successors those sent after the delivery;
// ordered by send, both are a suffix of the receiver's sends, so each is
// a subslice of bySender found by one binary search.
func continuations(p *model.Pattern) (bySender, chainSucc, causalSucc [][]int) {
	bySender = make([][]int, p.N)
	for i := range p.Messages {
		bySender[p.Messages[i].From] = append(bySender[p.Messages[i].From], i)
	}
	sendSeq := func(a, b int) int { return cmp.Compare(p.Messages[a].SendSeq, p.Messages[b].SendSeq) }
	for _, sends := range bySender {
		slices.SortFunc(sends, sendSeq)
	}
	chainSucc = make([][]int, len(p.Messages))
	causalSucc = make([][]int, len(p.Messages))
	for a := range p.Messages {
		ma := &p.Messages[a]
		sends := bySender[ma.To]
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
	return bySender, chainSucc, causalSucc
}

// closure computes the reflexive-transitive closure rows of the chain
// graph with edges a -> succ[a]. It has cycles: a zigzag chain can
// return to an earlier interval of the process it started on. (A causal
// one cannot in a run that happened, but a trace file need not be one.)
// Components come sinks first, so when a component comes the rows of
// everything it reaches outside itself are final: its row is its
// members' bits OR those rows, computed once and shared by its members.
func closure(succ [][]int) []bitset {
	rows := make([]bitset, len(succ))
	orred := make([]int, len(succ)) // 1 + last component that OR'ed a component's row
	comps := 0
	sccs(succ, func(members, comp []int) {
		row := newBitset(len(succ))
		for _, m := range members {
			row.set(m)
		}
		for _, m := range members {
			for _, w := range succ[m] {
				if comp[w] >= 0 && orred[comp[w]] != comps+1 {
					orred[comp[w]] = comps + 1
					row.or(rows[w])
				}
			}
		}
		for _, m := range members {
			rows[m] = row
		}
		comps++
	})
	return rows
}

// sccs calls emit once per strongly connected component of the graph
// with edges a -> succ[a], sinks first: an iterative Tarjan walk. Emitted
// components are numbered 0, 1, ... in order; comp[v] is v's number from
// its component's emission on and -1 before it, so during emit a
// successor w of a member is itself a member iff comp[w] < 0. Both the
// chain closures and the R-graph's reach vectors (build) are one walk.
func sccs(succ [][]int, emit func(members, comp []int)) {
	n := len(succ)
	comp := make([]int, n)
	index := make([]int, n) // 1 + DFS discovery order; 0 is unvisited
	low := make([]int, n)
	for v := range comp {
		comp[v] = -1
	}
	var open []int // Tarjan's stack: visited nodes not yet emitted
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
				case comp[w] < 0: // on the stack: same component
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
			emit(members, comp)
			for _, m := range members {
				comp[m] = comps
			}
			comps++
		}
	}
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
