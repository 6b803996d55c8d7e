// Package rgraph implements the rollback-dependency theory of the paper on
// top of recorded checkpoint and communication patterns: the R-graph
// (Section 3.1), message chains — causal and zigzag (Definitions 3.1–3.2) —
// on-line trackability and the offline RDT checker (Definitions 3.3–3.4),
// consistency of global checkpoints (Definition 2.2), the Netzer–Xu
// extensibility criterion, and minimum / maximum consistent global
// checkpoint computations (Corollary 4.5 and its dual).
//
// Everything here is computed from the trace alone, independently of any
// protocol state, so the package acts as the ground-truth oracle against
// which the on-line protocols of internal/core are verified.
package rgraph

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"github.com/rdt-go/rdt/internal/model"
)

// Graph is the rollback-dependency graph (R-graph) of a pattern. Nodes are
// the local checkpoints; there is an edge C_{i,x} -> C_{i,x+1} for every
// consecutive pair of checkpoints of a process, and an edge
// C_{i,x} -> C_{j,y} for every message sent in I_{i,x} and delivered in
// I_{j,y}. An R-path C -> C' means: rolling process i back past C forces
// rolling process j back past C'.
type Graph struct {
	p      *model.Pattern
	offset []int    // node id of C_{i,0}
	nodes  int      // total node count
	adj    [][]int  // adjacency lists (deduplicated)
	reach  []bitset // nodes reachable by a path of length >= 1
}

// Build constructs the R-graph of the pattern and precomputes its
// reachability relation. The pattern must be finalized: every message
// endpoint must lie in a closed checkpoint interval.
func Build(p *model.Pattern) (*Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("rgraph: %w", err)
	}
	return build(p)
}

// build is Build on a pattern the caller has validated.
func build(p *model.Pattern) (*Graph, error) {
	g := &Graph{p: p, offset: make([]int, p.N)}
	for i := 0; i < p.N; i++ {
		g.offset[i] = g.nodes
		g.nodes += len(p.Checkpoints[i])
	}
	edges := make([][2]int, 0, g.nodes+len(p.Messages))
	for i := 0; i < p.N; i++ {
		for x := 1; x < len(p.Checkpoints[i]); x++ {
			edges = append(edges, [2]int{g.id(model.ProcID(i), x-1), g.id(model.ProcID(i), x)})
		}
	}
	for i := range p.Messages {
		m := &p.Messages[i]
		if m.SendInterval > p.LastIndex(m.From) {
			return nil, fmt.Errorf("rgraph: message %d sent in open interval %d of process %d", m.ID, m.SendInterval, m.From)
		}
		if m.DeliverInterval > p.LastIndex(m.To) {
			return nil, fmt.Errorf("rgraph: message %d delivered in open interval %d of process %d", m.ID, m.DeliverInterval, m.To)
		}
		edges = append(edges, [2]int{g.id(m.From, m.SendInterval), g.id(m.To, m.DeliverInterval)})
	}
	slices.SortFunc(edges, func(a, b [2]int) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	// Sorted order groups each node's successors and makes duplicates
	// (parallel messages between one interval pair) adjacent.
	dedup := edges[:0]
	var prev [2]int
	for i, e := range edges {
		if i > 0 && e == prev {
			continue
		}
		prev = e
		dedup = append(dedup, e)
	}
	// The adjacency lists share one arena, sliced per source node.
	targets := make([]int, len(dedup))
	for i, e := range dedup {
		targets[i] = e[1]
	}
	g.adj = make([][]int, g.nodes)
	for start := 0; start < len(dedup); {
		end := start
		for end < len(dedup) && dedup[end][0] == dedup[start][0] {
			end++
		}
		g.adj[dedup[start][0]] = targets[start:end]
		start = end
	}
	// closure's rows are reflexive; an R-path has length at least one.
	// A node no successor reaches back is on no cycle (Validate refuses
	// self-sends, so there are no self-loops): it is a component of its
	// own, its row is not shared, and its diagonal bit goes.
	g.reach = closure(g.adj)
	for v, succ := range g.adj {
		if !slices.ContainsFunc(succ, func(w int) bool { return g.reach[w].get(v) }) {
			g.reach[v].clear(v)
		}
	}
	return g, nil
}

// Pattern returns the pattern the graph was built from.
func (g *Graph) Pattern() *model.Pattern { return g.p }

// NumNodes returns the number of local checkpoints.
func (g *Graph) NumNodes() int { return g.nodes }

// NumEdges returns the number of distinct R-graph edges.
func (g *Graph) NumEdges() int {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return total
}

// HasRPath reports whether there is an R-path (a directed path of length at
// least one) from checkpoint a to checkpoint b. Note that HasRPath(c, c) is
// true exactly when c lies on a cycle of the R-graph.
func (g *Graph) HasRPath(a, b model.CkptID) bool {
	return g.reach[g.id(a.Proc, a.Index)].get(g.id(b.Proc, b.Index))
}

// Successors returns the direct successors of a checkpoint in the R-graph.
func (g *Graph) Successors(a model.CkptID) []model.CkptID {
	var out []model.CkptID
	for _, t := range g.adj[g.id(a.Proc, a.Index)] {
		out = append(out, g.ckpt(t))
	}
	return out
}

// ReachableCount returns the number of checkpoints reachable from a by an
// R-path of length at least one.
func (g *Graph) ReachableCount(a model.CkptID) int {
	return g.reach[g.id(a.Proc, a.Index)].count()
}

// Useless reports whether the checkpoint is on a zigzag cycle, so in no
// consistent global checkpoint. In Wang's R-graph form of Netzer–Xu,
// C_{i,x} is useless iff an R-path leads from C_{i,x+1} back to C_{i,x}.
// Being on an R-graph cycle (HasRPath(c, c)) is weaker: such a cycle may
// use only messages of c's own interval.
func (g *Graph) Useless(a model.CkptID) bool {
	return a.Index < g.p.LastIndex(a.Proc) && g.reach[g.id(a.Proc, a.Index+1)].get(g.id(a.Proc, a.Index))
}

func (g *Graph) id(i model.ProcID, x int) int { return g.offset[i] + x }

func (g *Graph) ckpt(id int) model.CkptID {
	// Binary search over offsets would be overkill: N is small.
	for i := g.p.N - 1; i >= 0; i-- {
		if id >= g.offset[i] {
			return model.CkptID{Proc: model.ProcID(i), Index: id - g.offset[i]}
		}
	}
	return model.CkptID{}
}

// RollbackClosure returns every checkpoint that must also be discarded
// when the computation is rolled back past each of the given checkpoints:
// the union of the targets with everything reachable from them in the
// R-graph (that is the operational meaning of an R-path, Section 3.1).
// The result is sorted by process, then index.
func (g *Graph) RollbackClosure(targets ...model.CkptID) []model.CkptID {
	doomed := newBitset(g.nodes)
	for _, c := range targets {
		id := g.id(c.Proc, c.Index)
		doomed.set(id)
		doomed.or(g.reach[id])
	}
	var out []model.CkptID
	for v := 0; v < g.nodes; v++ {
		if doomed.get(v) {
			out = append(out, g.ckpt(v))
		}
	}
	return out
}

// DOT renders the R-graph as a Graphviz digraph, with one cluster per
// process and the checkpoints that lie on cycles (every useless
// checkpoint among them) highlighted.
func (g *Graph) DOT() string {
	var b strings.Builder
	b.WriteString("digraph rgraph {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n")
	p := g.p
	for i := 0; i < p.N; i++ {
		fmt.Fprintf(&b, "  subgraph cluster_p%d {\n    label=\"P%d\";\n", i, i)
		for x := range p.Checkpoints[i] {
			id := model.CkptID{Proc: model.ProcID(i), Index: x}
			attrs := ""
			if g.HasRPath(id, id) {
				attrs = ", style=filled, fillcolor=salmon"
			}
			fmt.Fprintf(&b, "    r%d_%d [label=\"C(%d,%d)\"%s];\n", i, x, i, x, attrs)
		}
		b.WriteString("  }\n")
	}
	for v := 0; v < g.nodes; v++ {
		from := g.ckpt(v)
		for _, w := range g.adj[v] {
			to := g.ckpt(w)
			style := ""
			if from.Proc == to.Proc {
				style = " [style=dotted]"
			}
			fmt.Fprintf(&b, "  r%d_%d -> r%d_%d%s;\n", from.Proc, from.Index, to.Proc, to.Index, style)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
