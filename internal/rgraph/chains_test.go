package rgraph

import (
	"slices"
	"testing"

	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/sim"
	"github.com/rdt-go/rdt/internal/workload"
)

// pairContinuations lists the chain and causal continuations of every
// message by testing every ordered pair of messages.
func pairContinuations(p *model.Pattern) (chainAdj, causalAdj [][]int) {
	chainAdj = make([][]int, len(p.Messages))
	causalAdj = make([][]int, len(p.Messages))
	for a := range p.Messages {
		ma := &p.Messages[a]
		for b := range p.Messages {
			mb := &p.Messages[b]
			if ma.To != mb.From || ma.DeliverInterval > mb.SendInterval {
				continue
			}
			chainAdj[a] = append(chainAdj[a], b)
			if ma.DeliverSeq < mb.SendSeq {
				causalAdj[a] = append(causalAdj[a], b)
			}
		}
	}
	return chainAdj, causalAdj
}

// closureFixpoint is the closure the one-pass walk replaced, kept as the
// oracle: OR every successor's row into each row, over and over, until a
// whole pass changes no row.
func closureFixpoint(adj [][]int, n int) []bitset {
	rows := make([]bitset, n)
	for i := range rows {
		rows[i] = newBitset(n)
		rows[i].set(i)
	}
	for changed := true; changed; {
		changed = false
		for a := 0; a < n; a++ {
			before := rows[a].count()
			for _, b := range adj[a] {
				rows[a].or(rows[b])
			}
			if rows[a].count() != before {
				changed = true
			}
		}
	}
	return rows
}

// checkClosures compares every row of both closures of NewChains, and
// every R-graph reach row of Build, diagonal included, with the fixpoint
// oracle's, and returns how many messages share their chain row with
// another (members of one multi-message component).
func checkClosures(t *testing.T, name string, p *model.Pattern) (shared int) {
	t.Helper()
	c, err := NewChains(p)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	g, err := Build(p)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	// An R-path has length at least one: v's row is the OR of its
	// successors' reflexive rows.
	reflexive := closureFixpoint(g.adj, g.nodes)
	for v := range g.nodes {
		want := newBitset(g.nodes)
		for _, w := range g.adj[v] {
			want.or(reflexive[w])
		}
		if !slices.Equal(g.reach[v], want) {
			t.Fatalf("%s: R-graph reach row of node %d (%v) differs from the fixpoint", name, v, g.ckpt(v))
		}
	}
	chainAdj, causalAdj := pairContinuations(p)
	for _, cl := range []struct {
		kind      string
		got, want []bitset
	}{
		{"chain", c.chainReach, closureFixpoint(chainAdj, len(p.Messages))},
		{"causal", c.causalReach, closureFixpoint(causalAdj, len(p.Messages))},
	} {
		for i := range cl.want {
			if !slices.Equal(cl.got[i], cl.want[i]) {
				t.Fatalf("%s: %s row of message %d differs from the fixpoint", name, cl.kind, i)
			}
		}
	}
	first := make(map[*uint64]bool)
	for _, row := range c.chainReach {
		if first[&row[0]] {
			shared++
		}
		first[&row[0]] = true
	}
	return shared
}

func TestClosureMatchesFixpointOnPropertyCorpus(t *testing.T) {
	for seed := int64(1); seed <= propertySeeds; seed++ {
		checkClosures(t, "property corpus", buildFixture(t, seed).p)
	}
}

// TestClosureMatchesFixpointOnGridPatterns: the uncoordinated runs of the
// Guarantees table (8 processes, a fifth of the paper horizon), whose
// zigzag cycles make components of many messages.
func TestClosureMatchesFixpointOnGridPatterns(t *testing.T) {
	w, err := workload.ByName("random")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{17, 817} {
		cfg := sim.DefaultConfig(core.KindNone, seed)
		cfg.Duration = 300
		cfg.BasicMean = 8
		res, err := sim.Run(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		if shared := checkClosures(t, "grid", res.Pattern); shared == 0 {
			t.Fatalf("seed %d: no zigzag cycle among %d messages", seed, len(res.Pattern.Messages))
		}
	}
}

// TestClosureOfHandBuiltCycle: m0 and m1 cross in the first intervals of
// two processes, so each continues the other (a zigzag cycle, no causal
// one), and m2 leaves the cycle: sent by P0 after m0's delivery, it
// arrives after P1's sends.
func TestClosureOfHandBuiltCycle(t *testing.T) {
	b := model.NewBuilder(2)
	m0 := b.Send(1, 0)
	m1 := b.Send(0, 1)
	for _, m := range []int{m0, m1} {
		if err := b.Deliver(m); err != nil {
			t.Fatal(err)
		}
	}
	b.Checkpoint(0, model.KindBasic, nil)
	b.Checkpoint(1, model.KindBasic, nil)
	m2 := b.Send(0, 1)
	if err := b.Deliver(m2); err != nil {
		t.Fatal(err)
	}
	p, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if shared := checkClosures(t, "cycle", p); shared != 1 {
		t.Fatalf("%d messages share a row, want 1 (m0 and m1)", shared)
	}
	c, err := NewChains(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		reach []bitset
		from  int
		want  []bool // reaches m0, m1, m2
	}{
		{c.chainReach, m0, []bool{true, true, true}},
		{c.chainReach, m1, []bool{true, true, true}},
		{c.chainReach, m2, []bool{false, false, true}},
		{c.causalReach, m0, []bool{true, false, true}},
		{c.causalReach, m1, []bool{false, true, false}},
	} {
		for to, want := range tc.want {
			if got := tc.reach[tc.from].get(to); got != want {
				t.Errorf("m%d reaches m%d = %v, want %v", tc.from, to, got, want)
			}
		}
	}
}
