package rgraph

import (
	"math/rand"
	"runtime"
	"testing"

	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/sim"
	"github.com/rdt-go/rdt/internal/trace"
	"github.com/rdt-go/rdt/internal/workload"
)

// TestExplainFigure1: the paper's own example. (C_{k,1}, C_{i,2}) is an
// R-path witnessed only by the non-causal chain [m3 m2], so the checker
// convicts the pair and the explainer must hand back exactly that chain.
func TestExplainFigure1(t *testing.T) {
	p, err := trace.Figure1()
	if err != nil {
		t.Fatalf("figure 1: %v", err)
	}
	rep, witnesses, err := Explain(p, 0)
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	if rep.RDT {
		t.Fatalf("figure 1 should violate RDT")
	}
	if len(witnesses) != len(rep.Violations) {
		t.Fatalf("%d witnesses for %d violations", len(witnesses), len(rep.Violations))
	}
	target := Violation{
		From: model.CkptID{Proc: trace.Pk, Index: 1},
		To:   model.CkptID{Proc: trace.Pi, Index: 2},
	}
	var w *Witness
	for _, cand := range witnesses {
		if cand.Violation == target {
			w = cand
		}
	}
	if w == nil {
		t.Fatalf("no witness for %v among %v", target, rep.Violations)
	}
	ids := w.MessageIDs()
	if len(ids) != 2 || ids[0] != trace.M3 || ids[1] != trace.M2 {
		t.Fatalf("witness chain %v, want [m3 m2]", ids)
	}
	if w.NonCausal != 1 || w.Hops[0].CausalToNext {
		t.Fatalf("the m3 -> m2 continuation must be the zigzag: %+v", w)
	}
	for _, cand := range witnesses {
		if err := VerifyWitness(p, cand); err != nil {
			t.Fatalf("verify: %v", err)
		}
	}
}

// TestExplainRejectsTrackablePairs: asking for a witness of a pair that
// is not a violation must fail rather than fabricate evidence.
func TestExplainRejectsTrackablePairs(t *testing.T) {
	p, err := trace.Figure1()
	if err != nil {
		t.Fatalf("figure 1: %v", err)
	}
	e := newExplainer(p)
	samePair := Violation{
		From: model.CkptID{Proc: trace.Pi, Index: 0},
		To:   model.CkptID{Proc: trace.Pi, Index: 2},
	}
	if _, err := e.explain(samePair); err == nil {
		t.Fatalf("same-process pair must not be explainable")
	}
	// No message chain runs from C_{i,3}'s sends back into I_{k,1}.
	noPath := Violation{
		From: model.CkptID{Proc: trace.Pk, Index: 2},
		To:   model.CkptID{Proc: trace.Pi, Index: 1},
	}
	if _, err := e.explain(noPath); err == nil {
		t.Fatalf("chainless pair must not be explainable")
	}
}

// TestExplainProperty: over >= 500 seeded random patterns, every
// conviction of the batch checker yields a witness that the independent
// verifier confirms is a valid, non-causally-doubled zigzag chain with
// at least two messages and at least one non-causal continuation.
func TestExplainProperty(t *testing.T) {
	const seeds = 500
	violating := 0
	for seed := int64(1); seed <= seeds; seed++ {
		p := randomPattern(t, seed, 3+int(seed%3), 50)
		rep, witnesses, err := Explain(p, 64)
		if err != nil {
			t.Fatalf("seed %d: explain: %v", seed, err)
		}
		if rep.RDT {
			continue
		}
		violating++
		if len(witnesses) != len(rep.Violations) {
			t.Fatalf("seed %d: %d witnesses for %d violations", seed, len(witnesses), len(rep.Violations))
		}
		chains, err := NewChains(p)
		if err != nil {
			t.Fatalf("seed %d: chains: %v", seed, err)
		}
		for i, w := range witnesses {
			if w.Violation != rep.Violations[i] {
				t.Fatalf("seed %d: witness %d explains %v, violation is %v", seed, i, w.Violation, rep.Violations[i])
			}
			if len(w.Hops) < 2 {
				t.Fatalf("seed %d: witness %v has %d hops; violations need >= 2", seed, w.Violation, len(w.Hops))
			}
			if err := VerifyWitnessChains(p, chains, w); err != nil {
				t.Fatalf("seed %d: verify: %v", seed, err)
			}
		}
	}
	if violating == 0 {
		t.Fatalf("no seed produced a violation — the property test is vacuous")
	}
}

// TestExplainMinimal: the witness is minimal — no shorter chain links
// the violating pair. Checked by brute-force BFS-free enumeration of all
// chains up to the witness length on small patterns.
func TestExplainMinimal(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		p := randomPattern(t, seed, 3, 40)
		rep, witnesses, err := Explain(p, 32)
		if err != nil {
			t.Fatalf("seed %d: explain: %v", seed, err)
		}
		for _, w := range witnesses {
			if n := shortestChainLen(p, w.Violation); n != len(w.Hops) {
				t.Fatalf("seed %d: witness for %v has %d hops, shortest chain has %d",
					seed, w.Violation, len(w.Hops), n)
			}
		}
		_ = rep
	}
}

// shortestChainLen computes, by independent breadth-first layering over
// message sets, the fewest messages in a chain realizing the pair.
func shortestChainLen(p *model.Pattern, v Violation) int {
	frontier := map[int]bool{}
	for i := range p.Messages {
		m := &p.Messages[i]
		if m.From == v.From.Proc && m.SendInterval >= v.From.Index {
			frontier[i] = true
		}
	}
	seen := map[int]bool{}
	for length := 1; length <= len(p.Messages)+1; length++ {
		next := map[int]bool{}
		for i := range frontier {
			m := &p.Messages[i]
			if m.To == v.To.Proc && m.DeliverInterval <= v.To.Index {
				return length
			}
			seen[i] = true
			for j := range p.Messages {
				mj := &p.Messages[j]
				if !seen[j] && m.To == mj.From && m.DeliverInterval <= mj.SendInterval {
					next[j] = true
				}
			}
		}
		frontier = next
		if len(frontier) == 0 {
			break
		}
	}
	return -1
}

// TestIncrementalExplain: the on-line checker explains its own
// violations against the lockstep pattern snapshot, matching the batch
// explainer witness for witness.
func TestIncrementalExplain(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		p := randomPattern(t, seed, 3+int(seed%3), 50)
		inc := streamPattern(t, p)
		irep := inc.Report(32)
		iws, err := ExplainReport(p, irep)
		if err != nil {
			t.Fatalf("seed %d: incremental explain: %v", seed, err)
		}
		brep, bws, err := Explain(p, 32)
		if err != nil {
			t.Fatalf("seed %d: batch explain: %v", seed, err)
		}
		if irep.RDT != brep.RDT || len(iws) != len(bws) {
			t.Fatalf("seed %d: incremental (rdt=%v, %d witnesses) vs batch (rdt=%v, %d witnesses)",
				seed, irep.RDT, len(iws), brep.RDT, len(bws))
		}
		for i := range iws {
			if iws[i].String() != bws[i].String() {
				t.Fatalf("seed %d: witness %d differs:\n  incremental %v\n  batch       %v",
					seed, i, iws[i], bws[i])
			}
		}
	}
}

// TestExplainMatchesPairOracle: on the TestExplainProperty corpus the
// suffix search returns the stored-adjacency search's witnesses, byte
// for byte.
func TestExplainMatchesPairOracle(t *testing.T) {
	for seed := int64(1); seed <= 500; seed++ {
		p := randomPattern(t, seed, 3+int(seed%3), 50)
		rep, err := CheckRDT(p, 64)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := checkWitnessOracle(p, rep); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestExplainMatchesPairOracleOnGridPatterns: the uncoordinated runs of
// the Guarantees table, whose zigzag cycles give long searches through
// many processes.
func TestExplainMatchesPairOracleOnGridPatterns(t *testing.T) {
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
		rep, err := CheckRDT(res.Pattern, 64)
		if err != nil {
			t.Fatal(err)
		}
		if rep.RDT {
			t.Fatalf("seed %d: the uncoordinated grid run satisfies RDT", seed)
		}
		if err := checkWitnessOracle(res.Pattern, rep); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestExplainIgnoresMessageOrder: a witness depends on the pattern's
// events, not on the order of p.Messages. Shuffling the slice leaves
// every witness of the property corpus byte-identical.
func TestExplainIgnoresMessageOrder(t *testing.T) {
	for seed := int64(1); seed <= 500; seed++ {
		p := randomPattern(t, seed, 3+int(seed%3), 50)
		rep, want, err := Explain(p, 64)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		shuffled := *p
		shuffled.Messages = append([]model.Message(nil), p.Messages...)
		rand.New(rand.NewSource(seed)).Shuffle(len(shuffled.Messages), func(i, j int) {
			shuffled.Messages[i], shuffled.Messages[j] = shuffled.Messages[j], shuffled.Messages[i]
		})
		got, err := ExplainReport(&shuffled, rep)
		if err != nil {
			t.Fatalf("seed %d: shuffled: %v", seed, err)
		}
		for i := range want {
			if got[i].String() != want[i].String() {
				t.Fatalf("seed %d: witness %d changed with the message order:\n  shuffled %v\n  stored   %v", seed, i, got[i], want[i])
			}
		}
	}
}

// TestExplainerHeapIsLinear pins the explainer's construction to linear
// memory without a clock: on unprotected 8-process patterns its heap
// bytes per message at 2^15 events stay within 1.5x of those at 2^12. A
// stored message adjacency grows with the number of messages per
// process, eight times over that span.
func TestExplainerHeapIsLinear(t *testing.T) {
	perMessage := func(events int) float64 {
		p := randomPattern(t, 1, 8, events)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e := newExplainer(p)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(e)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(len(p.Messages))
	}
	small, large := perMessage(1<<12), perMessage(1<<15)
	t.Logf("explainer heap: %.1f B/message at 2^12 events, %.1f at 2^15", small, large)
	if large > 1.5*small {
		t.Errorf("explainer heap per message grew from %.1f B at 2^12 events to %.1f B at 2^15", small, large)
	}
}
