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
	"fmt"
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
	offset []int   // node id of C_{i,0}
	nodes  int     // total node count
	adj    [][]int // adjacency lists (ascending, deduplicated)
	// reach[v*N+j] is the first index of process j an R-path from node v
	// reaches, or j's checkpoint count if none does. An R-path that
	// reaches C_{j,y} goes on along j's chain, so it reaches exactly the
	// checkpoints of j from that index on.
	reach []int32
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
	for i := range p.Messages {
		m := &p.Messages[i]
		if m.SendInterval > p.LastIndex(m.From) {
			return nil, fmt.Errorf("rgraph: message %d sent in open interval %d of process %d", m.ID, m.SendInterval, m.From)
		}
		if m.DeliverInterval > p.LastIndex(m.To) {
			return nil, fmt.Errorf("rgraph: message %d delivered in open interval %d of process %d", m.ID, m.DeliverInterval, m.To)
		}
	}
	edges := func(f func(u, v int)) {
		for i := 0; i < p.N; i++ {
			for v := g.offset[i] + 1; v < g.offset[i]+len(p.Checkpoints[i]); v++ {
				f(v-1, v)
			}
		}
		for i := range p.Messages {
			m := &p.Messages[i]
			f(g.id(m.From, m.SendInterval), g.id(m.To, m.DeliverInterval))
		}
	}
	// Two counting passes, by target and then stably by source, leave each
	// node's targets ascending, with the duplicates (parallel messages
	// between one interval pair) adjacent.
	in, out := make([]int, g.nodes+1), make([]int, g.nodes+1)
	edges(func(u, v int) { out[u+1]++; in[v+1]++ })
	for v := 1; v <= g.nodes; v++ {
		in[v] += in[v-1]
		out[v] += out[v-1]
	}
	sources := make([]int, in[g.nodes])
	edges(func(u, v int) { sources[in[v]] = u; in[v]++ })
	targets := make([]int, len(sources))
	for v, lo := 0, 0; v < g.nodes; v++ {
		for _, u := range sources[lo:in[v]] {
			targets[out[u]] = v
			out[u]++
		}
		lo = in[v]
	}
	// The adjacency lists share one arena, sliced per source node.
	g.adj = make([][]int, g.nodes)
	for u, lo, w := 0, 0, 0; u < g.nodes; u++ {
		from := w
		for _, v := range targets[lo:out[u]] {
			if w == from || targets[w-1] != v {
				targets[w] = v
				w++
			}
		}
		lo = out[u]
		g.adj[u] = targets[from:w:w]
	}
	// Components come sinks first, so the vectors of the successors
	// outside a component are final when it comes. A successor inside it
	// lies on a cycle through every member, so the members all reach
	// exactly what the component's successors do.
	n := p.N
	g.reach = make([]int32, g.nodes*n)
	owner := make([]int32, g.nodes) // the process of a node
	for i := 1; i < n; i++ {
		for v := g.offset[i]; v < g.offset[i]+len(p.Checkpoints[i]); v++ {
			owner[v] = int32(i)
		}
	}
	vec := make([]int32, n)
	sccs(g.adj, func(members, comp []int) {
		for j := range vec {
			vec[j] = int32(len(p.Checkpoints[j]))
		}
		for _, u := range members {
			for _, v := range g.adj[u] {
				j := owner[v]
				vec[j] = min(vec[j], int32(v-g.offset[j]))
				if comp[v] >= 0 {
					for k, r := range g.reach[v*n : v*n+n] {
						vec[k] = min(vec[k], r)
					}
				}
			}
		}
		for _, u := range members {
			copy(g.reach[u*n:], vec)
		}
	})
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
	return int(g.reachOf(a)[b.Proc]) <= b.Index
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
	total := 0
	for j, r := range g.reachOf(a) {
		total += len(g.p.Checkpoints[j]) - int(r)
	}
	return total
}

// Useless reports whether the checkpoint is on a zigzag cycle, so in no
// consistent global checkpoint. In Wang's R-graph form of Netzer–Xu,
// C_{i,x} is useless iff an R-path leads from C_{i,x+1} back to C_{i,x}.
// Being on an R-graph cycle (HasRPath(c, c)) is weaker: such a cycle may
// use only messages of c's own interval.
func (g *Graph) Useless(a model.CkptID) bool {
	return a.Index < g.p.LastIndex(a.Proc) && g.HasRPath(model.CkptID{Proc: a.Proc, Index: a.Index + 1}, a)
}

// CanExtend reports whether the given set of checkpoints can be extended
// to a consistent global checkpoint (Netzer–Xu): it holds at most one
// checkpoint per process, and no zigzag path connects any member to any
// member, itself included. In Wang's R-graph form, a zigzag path leads
// from C_{i,x} to b iff an R-path leads from C_{i,x+1} to b.
func (g *Graph) CanExtend(set []model.CkptID) bool {
	for _, a := range set {
		next := model.CkptID{Proc: a.Proc, Index: a.Index + 1}
		zigzags := a.Index < g.p.LastIndex(a.Proc) // no zigzag path leaves a last checkpoint
		for _, b := range set {
			if b.Proc == a.Proc && b.Index != a.Index || zigzags && g.HasRPath(next, b) {
				return false
			}
		}
	}
	return true
}

func (g *Graph) id(i model.ProcID, x int) int { return g.offset[i] + x }

// reachOf returns a's reach vector: entry j is the first index of process
// j an R-path from a reaches.
func (g *Graph) reachOf(a model.CkptID) []int32 {
	v := g.id(a.Proc, a.Index) * g.p.N
	return g.reach[v : v+g.p.N]
}

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
	from := make([]int, g.p.N) // the first index of each process reached
	for j := range from {
		from[j] = len(g.p.Checkpoints[j])
	}
	doomed := make([]bool, g.nodes)
	for _, c := range targets {
		doomed[g.id(c.Proc, c.Index)] = true
		for j, r := range g.reachOf(c) {
			from[j] = min(from[j], int(r))
		}
	}
	var out []model.CkptID
	for v := 0; v < g.nodes; v++ {
		if c := g.ckpt(v); doomed[v] || c.Index >= from[c.Proc] {
			out = append(out, c)
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
