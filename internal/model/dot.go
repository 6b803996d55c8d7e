package model

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// DOT renders the pattern as a Graphviz digraph: one horizontal rank per
// process, checkpoints as boxes, messages as arrows between the intervals
// that contain their endpoints. Useful for debugging traces and for the
// documentation examples.
func (p *Pattern) DOT() string { return p.dot(nil, nil) }

// DOTWitness renders the pattern like DOT with a witness path
// highlighted: the messages whose IDs appear in witness draw red and
// bold (ordinary messages fade to gray), and the two endpoint
// checkpoints — the untrackable R-path's source and target — draw with
// a red border. The ordered witness typically comes from
// rgraph.Witness.MessageIDs.
func (p *Pattern) DOTWitness(witness []int, endpoints ...CkptID) string {
	return p.dot(witness, endpoints)
}

func (p *Pattern) dot(witness []int, endpoints []CkptID) string {
	onPath := make(map[int]bool, len(witness))
	for _, id := range witness {
		onPath[id] = true
	}
	marked := make(map[CkptID]bool, len(endpoints))
	for _, c := range endpoints {
		marked[c] = true
	}
	var b strings.Builder
	b.WriteString("digraph pattern {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n")
	for i, cs := range p.Checkpoints {
		fmt.Fprintf(&b, "  subgraph cluster_p%d {\n    label=\"P%d\";\n", i, i)
		for x := range cs {
			attrs := ""
			if marked[CkptID{Proc: ProcID(i), Index: x}] {
				attrs = ", color=red, penwidth=2"
			}
			fmt.Fprintf(&b, "    c%d_%d [label=\"C(%d,%d)\\n%s\"%s];\n", i, x, i, x, cs[x].Kind, attrs)
		}
		for x := 1; x < len(cs); x++ {
			fmt.Fprintf(&b, "    c%d_%d -> c%d_%d [style=dotted];\n", i, x-1, i, x)
		}
		b.WriteString("  }\n")
	}
	msgs := slices.Clone(p.Messages)
	slices.SortFunc(msgs, func(a, c Message) int { return cmp.Compare(a.ID, c.ID) })
	for i := range msgs {
		m := &msgs[i]
		style := "color=blue"
		if onPath[m.ID] {
			style = "color=red, penwidth=2, fontcolor=red"
		} else if len(witness) > 0 {
			style = "color=gray"
		}
		// Draw from the checkpoint that ends the send interval to the
		// checkpoint that ends the delivery interval — the R-graph edge.
		fmt.Fprintf(&b, "  c%d_%d -> c%d_%d [label=\"m%d\", %s];\n",
			m.From, min(m.SendInterval, p.LastIndex(m.From)), m.To, min(m.DeliverInterval, p.LastIndex(m.To)), m.ID, style)
	}
	b.WriteString("}\n")
	return b.String()
}
