package rgraph

import (
	"errors"
	"os"
	"strings"
	"testing"

	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/trace"
)

func figure1(t *testing.T) *model.Pattern {
	t.Helper()
	p, err := trace.Figure1()
	if err != nil {
		t.Fatalf("figure1: %v", err)
	}
	return p
}

func ck(proc model.ProcID, index int) model.CkptID {
	return model.CkptID{Proc: proc, Index: index}
}

func TestBuildFigure1(t *testing.T) {
	g, err := Build(figure1(t))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if g.NumNodes() != 12 {
		t.Errorf("nodes = %d, want 12", g.NumNodes())
	}
	// 9 interval edges + 6 distinct message edges (m4 and m6 connect the
	// same pair of intervals).
	if g.NumEdges() != 15 {
		t.Errorf("edges = %d, want 15", g.NumEdges())
	}
}

func TestRPathsOfFigure1(t *testing.T) {
	g, err := Build(figure1(t))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	tests := []struct {
		name string
		from model.CkptID
		to   model.CkptID
		want bool
	}{
		{"chain m3,m2 gives C_k1 -> C_i2", ck(trace.Pk, 1), ck(trace.Pi, 2), true},
		{"chains m5,m4 / m5,m6 give C_i3 -> C_k2", ck(trace.Pi, 3), ck(trace.Pk, 2), true},
		{"long chain gives C_k1 -> C_j3", ck(trace.Pk, 1), ck(trace.Pj, 3), true},
		{"interval edges C_i0 -> C_i3", ck(trace.Pi, 0), ck(trace.Pi, 3), true},
		{"m1 gives C_i1 -> C_j1", ck(trace.Pi, 1), ck(trace.Pj, 1), true},
		{"no backward path C_j3 -> C_i1", ck(trace.Pj, 3), ck(trace.Pi, 1), false},
		{"no path C_i3 -> C_j1", ck(trace.Pi, 3), ck(trace.Pj, 1), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := g.HasRPath(tt.from, tt.to); got != tt.want {
				t.Errorf("HasRPath(%v,%v) = %v, want %v", tt.from, tt.to, got, tt.want)
			}
		})
	}
}

func TestFigure1HasNoCycles(t *testing.T) {
	p := figure1(t)
	g, err := Build(p)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	for i := 0; i < p.N; i++ {
		for x := range p.Checkpoints[i] {
			id := ck(model.ProcID(i), x)
			if g.HasRPath(id, id) {
				t.Errorf("%v unexpectedly on a cycle", id)
			}
		}
	}
}

func TestSuccessorsOfFigure1(t *testing.T) {
	g, err := Build(figure1(t))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	succ := g.Successors(ck(trace.Pi, 3))
	// C_{i,3} has the message edge of m5 (sent in I_{i,3}, delivered in
	// I_{j,2}) — and no interval successor, being P_i's last checkpoint.
	if len(succ) != 1 || succ[0] != ck(trace.Pj, 2) {
		t.Errorf("successors of C_i3 = %v, want [C{1,2}]", succ)
	}
}

func TestOfflineTDVsOfFigure1(t *testing.T) {
	p := figure1(t)
	tdvs, err := ComputeTDVs(p)
	if err != nil {
		t.Fatalf("compute: %v", err)
	}
	tests := []struct {
		at   model.CkptID
		want []int
	}{
		// C_{i,2} causally depends on C_{j,1}'s interval through m2 (which
		// carries P_j's interval index 1) and on nothing of P_k (the chain
		// [m3 m2] is non-causal).
		{ck(trace.Pi, 2), []int{2, 1, 0}},
		// C_{j,2} depends on m5 (I_{i,3}) and on m3 (I_{k,1}).
		{ck(trace.Pj, 2), []int{3, 2, 1}},
		// C_{k,2} depends on m4's piggyback: P_j interval 2, which itself
		// carried P_i interval 1 (via m1) but not m5 (sent later).
		{ck(trace.Pk, 2), []int{3, 2, 2}},
		// C_{j,3} depends on m7 from I_{k,2}.
		{ck(trace.Pj, 3), []int{3, 3, 2}},
	}
	for _, tt := range tests {
		got := tdvs.At(tt.at)
		for k := range tt.want {
			if got[k] != tt.want[k] {
				t.Errorf("TDV(%v) = %v, want %v", tt.at, got, tt.want)
				break
			}
		}
	}
}

func TestFigure1ViolatesRDT(t *testing.T) {
	rep, err := CheckRDT(figure1(t), 0)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if rep.RDT {
		t.Fatal("figure 1 reported as RDT; the chain [m3 m2] has no causal sibling")
	}
	found := false
	for _, v := range rep.Violations {
		if v.From == ck(trace.Pk, 1) && v.To == ck(trace.Pi, 2) {
			found = true
		}
	}
	if !found {
		t.Errorf("violations %v do not include C_k1 ~> C_i2", rep.Violations)
	}
	if rep.TrackablePairs >= rep.RPathPairs {
		t.Errorf("trackable %d, r-paths %d: expected strict gap", rep.TrackablePairs, rep.RPathPairs)
	}
}

func TestChainsOfFigure1(t *testing.T) {
	c, err := NewChains(figure1(t))
	if err != nil {
		t.Fatalf("chains: %v", err)
	}
	tests := []struct {
		name     string
		from, to model.CkptID
		chain    bool
		causal   bool
	}{
		{"m3m2: zigzag only", ck(trace.Pk, 1), ck(trace.Pi, 2), true, false},
		{"m5m4 has causal sibling m5m6", ck(trace.Pi, 3), ck(trace.Pk, 2), true, true},
		{"m3m4m7 causal", ck(trace.Pk, 1), ck(trace.Pj, 3), true, true},
		{"m1 direct", ck(trace.Pi, 1), ck(trace.Pj, 1), true, true},
		{"no chain backwards", ck(trace.Pj, 3), ck(trace.Pk, 1), false, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := c.HasChain(tt.from, tt.to); got != tt.chain {
				t.Errorf("HasChain = %v, want %v", got, tt.chain)
			}
			if got := c.HasCausalChain(tt.from, tt.to); got != tt.causal {
				t.Errorf("HasCausalChain = %v, want %v", got, tt.causal)
			}
		})
	}
}

func TestChainImpliesRPath(t *testing.T) {
	p := figure1(t)
	g, err := Build(p)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	c, err := NewChains(p)
	if err != nil {
		t.Fatalf("chains: %v", err)
	}
	forEachPair(p, func(a, b model.CkptID) {
		if c.HasChain(a, b) && !g.HasRPath(a, b) {
			t.Errorf("chain %v -> %v without R-path", a, b)
		}
		if c.HasCausalChain(a, b) && !c.HasChain(a, b) {
			t.Errorf("causal chain %v -> %v not a chain", a, b)
		}
	})
}

func TestConsistencyOfFigure1Globals(t *testing.T) {
	p := figure1(t)
	ok, err := IsConsistent(p, model.GlobalCheckpoint{1, 1, 1})
	if err != nil {
		t.Fatalf("consistent: %v", err)
	}
	if !ok {
		t.Error("{C_i1, C_j1, C_k1} should be consistent")
	}
	orphan, err := FindOrphan(p, model.GlobalCheckpoint{2, 2, 1})
	if err != nil {
		t.Fatalf("orphan: %v", err)
	}
	if orphan == nil {
		t.Fatal("{C_i2, C_j2, C_k1} should be inconsistent (orphan m5)")
	}
	if orphan.Message.ID != trace.M5 {
		t.Errorf("orphan = m%d, want m%d", orphan.Message.ID, trace.M5)
	}
	if orphan.Error() == "" {
		t.Error("orphan error string empty")
	}
}

func TestFindOrphanValidatesGlobal(t *testing.T) {
	p := figure1(t)
	if _, err := FindOrphan(p, model.GlobalCheckpoint{1, 1}); err == nil {
		t.Error("accepted short global checkpoint")
	}
	if _, err := FindOrphan(p, model.GlobalCheckpoint{9, 1, 1}); err == nil {
		t.Error("accepted out-of-range entry")
	}
}

func TestMinConsistentContainingFigure1(t *testing.T) {
	p := figure1(t)
	g, err := MinConsistentContaining(p, ck(trace.Pi, 2))
	if err != nil {
		t.Fatalf("min: %v", err)
	}
	want := model.GlobalCheckpoint{2, 1, 1}
	if !g.Equal(want) {
		t.Errorf("min containing C_i2 = %v, want %v", g, want)
	}
	ok, err := IsConsistent(p, g)
	if err != nil || !ok {
		t.Errorf("min result inconsistent: %v %v", ok, err)
	}
}

func TestMaxConsistentContainingFigure1(t *testing.T) {
	p := figure1(t)
	g, err := MaxConsistentContaining(p, ck(trace.Pk, 1))
	if err != nil {
		t.Fatalf("max: %v", err)
	}
	ok, err := IsConsistent(p, g)
	if err != nil || !ok {
		t.Fatalf("max result inconsistent: %v %v", ok, err)
	}
	if g[trace.Pk] != 1 {
		t.Errorf("pinned entry moved: %v", g)
	}
	// Maximality: raising any non-pinned entry by one must break
	// consistency or exceed the range.
	for i := range g {
		if model.ProcID(i) == trace.Pk {
			continue
		}
		if g[i] == p.LastIndex(model.ProcID(i)) {
			continue
		}
		bumped := g.Clone()
		bumped[i]++
		ok, err := IsConsistent(p, bumped)
		if err != nil {
			t.Fatalf("bumped: %v", err)
		}
		if ok {
			t.Errorf("result %v not maximal: %v also consistent", g, bumped)
		}
	}
}

func TestMinMaxPinnedConflicts(t *testing.T) {
	p := figure1(t)
	if _, err := MinConsistentContaining(p); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := MinConsistentContaining(p, ck(trace.Pi, 1), ck(trace.Pi, 2)); !errors.Is(err, ErrNoConsistentGlobal) {
		t.Errorf("conflicting pins: err = %v", err)
	}
	if _, err := MinConsistentContaining(p, ck(trace.Pi, 9)); err == nil {
		t.Error("out-of-range checkpoint accepted")
	}
	// Pinning both C_{i,2} and C_{j,2} is impossible: m5 is orphan.
	if _, err := MinConsistentContaining(p, ck(trace.Pi, 2), ck(trace.Pj, 2)); !errors.Is(err, ErrNoConsistentGlobal) {
		t.Errorf("inconsistent pair: err = %v", err)
	}
	if _, err := MaxConsistentContaining(p, ck(trace.Pi, 2), ck(trace.Pj, 2)); !errors.Is(err, ErrNoConsistentGlobal) {
		t.Errorf("inconsistent pair (max): err = %v", err)
	}
}

func TestRecoveryLineFigure1(t *testing.T) {
	p := figure1(t)
	last := model.GlobalCheckpoint{3, 3, 3}
	line, err := RecoveryLine(p, last)
	if err != nil {
		t.Fatalf("recovery line: %v", err)
	}
	ok, err := IsConsistent(p, line)
	if err != nil || !ok {
		t.Fatalf("line %v inconsistent: %v %v", line, ok, err)
	}
	if !line.DominatedBy(last) {
		t.Errorf("line %v exceeds bounds", line)
	}
	for i := range last {
		if d := last[i] - line[i]; d < 0 {
			t.Errorf("negative rollback depth %d for process %d", d, i)
		}
	}
}

func TestZigzagNXAndExtensibility(t *testing.T) {
	p := figure1(t)
	c, err := NewChains(p)
	if err != nil {
		t.Fatalf("chains: %v", err)
	}
	// m5 is sent after C_{i,2} and delivered before C_{j,2}: zigzag.
	if !c.ZigzagNX(ck(trace.Pi, 2), ck(trace.Pj, 2)) {
		t.Error("expected zigzag C_i2 ~> C_j2 (orphan m5)")
	}
	if c.CanExtend([]model.CkptID{ck(trace.Pi, 2), ck(trace.Pj, 2)}) {
		t.Error("{C_i2, C_j2} should not be extensible")
	}
	if !c.CanExtend([]model.CkptID{ck(trace.Pi, 1), ck(trace.Pj, 1), ck(trace.Pk, 1)}) {
		t.Error("{C_i1, C_j1, C_k1} should be extensible")
	}
	for i := 0; i < p.N; i++ {
		for x := range p.Checkpoints[i] {
			if id := ck(model.ProcID(i), x); c.ZigzagNX(id, id) {
				t.Errorf("C{%d,%d} reported useless in an acyclic figure", i, x)
			}
		}
	}
}

// TestExtensibilityMatchesMinFixpoint cross-validates Netzer–Xu
// extensibility against the orphan fixpoint: a pair of checkpoints can be
// extended to a consistent global checkpoint iff pinning both succeeds.
func TestExtensibilityMatchesMinFixpoint(t *testing.T) {
	p := figure1(t)
	c, err := NewChains(p)
	if err != nil {
		t.Fatalf("chains: %v", err)
	}
	forEachPair(p, func(a, b model.CkptID) {
		if a.Proc == b.Proc {
			return
		}
		_, minErr := MinConsistentContaining(p, a, b)
		canPin := minErr == nil
		canExtend := c.CanExtend([]model.CkptID{a, b})
		if canPin != canExtend {
			t.Errorf("pair (%v,%v): fixpoint %v, zigzag extensibility %v", a, b, canPin, canExtend)
		}
	})
}

func TestTrackableImpliesRPathOrSelf(t *testing.T) {
	p := figure1(t)
	g, err := Build(p)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	tdvs, err := ComputeTDVs(p)
	if err != nil {
		t.Fatalf("tdvs: %v", err)
	}
	forEachPair(p, func(a, b model.CkptID) {
		// Index-0 dependencies are vacuous: TDV entries start at 0, so
		// every checkpoint "depends" on every initial checkpoint.
		if a.Index == 0 || a == b {
			return
		}
		if tdvs.Trackable(a, b) && !g.HasRPath(a, b) {
			t.Errorf("trackable %v -> %v without R-path", a, b)
		}
	})
}

func TestVerifyRecordedTDVs(t *testing.T) {
	p := figure1(t)
	// Figure 1 carries no recorded vectors: trivially consistent.
	if err := VerifyRecordedTDVs(p); err != nil {
		t.Fatalf("unannotated pattern: %v", err)
	}
	// Inject the correct vector: still fine.
	tdvs, err := ComputeTDVs(p)
	if err != nil {
		t.Fatalf("tdvs: %v", err)
	}
	p.Checkpoints[trace.Pi][2].TDV = tdvs.At(ck(trace.Pi, 2)).Clone()
	if err := VerifyRecordedTDVs(p); err != nil {
		t.Fatalf("correct annotation rejected: %v", err)
	}
	// Corrupt it: must be detected.
	p.Checkpoints[trace.Pi][2].TDV[2] = 7
	if err := VerifyRecordedTDVs(p); err == nil {
		t.Fatal("corrupted TDV annotation not detected")
	}
}

func TestCheckLemma41OnFigure1(t *testing.T) {
	// Figure 1 has no pair of trackable paths violating Lemma 4.1 (the
	// violating structure needs a trackable cycle through consecutive
	// checkpoints, which the figure lacks).
	if err := CheckLemma41(figure1(t)); err != nil {
		t.Errorf("lemma 4.1 on figure 1: %v", err)
	}
}

func TestBuildRejectsOpenIntervals(t *testing.T) {
	b := model.NewBuilder(2)
	m := b.Send(0, 1)
	b.Checkpoint(0, model.KindBasic, nil)
	if err := b.Deliver(m); err != nil {
		t.Fatalf("deliver: %v", err)
	}
	p, err := b.Finalize()
	if err != nil {
		t.Fatalf("finalize: %v", err)
	}
	// Strip process 1's final checkpoint to leave the delivery in an open
	// interval.
	p.Checkpoints[1] = p.Checkpoints[1][:1]
	if _, err := Build(p); err == nil {
		t.Fatal("graph built over an open interval")
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{From: ck(0, 1), To: ck(1, 2)}
	if got := v.String(); got != "C{0,1} ~> C{1,2} untrackable" {
		t.Errorf("String = %q", got)
	}
}

// forEachPair enumerates all ordered checkpoint pairs of the pattern.
func forEachPair(p *model.Pattern, fn func(a, b model.CkptID)) {
	for i := 0; i < p.N; i++ {
		for x := range p.Checkpoints[i] {
			for j := 0; j < p.N; j++ {
				for y := range p.Checkpoints[j] {
					fn(ck(model.ProcID(i), x), ck(model.ProcID(j), y))
				}
			}
		}
	}
}

func TestInTransitFigure1(t *testing.T) {
	p := figure1(t)
	// At the consistent cut {1,1,1}: m2 (sent I_{j,1}, delivered I_{i,2})
	// and m3?  m3 is delivered in I_{j,1} <= 1, so only m2 is in transit.
	msgs, err := InTransit(p, model.GlobalCheckpoint{1, 1, 1})
	if err != nil {
		t.Fatalf("in transit: %v", err)
	}
	if len(msgs) != 1 || msgs[0].ID != trace.M2 {
		t.Errorf("in transit at {1,1,1} = %v, want [m2]", msgs)
	}
	// At the all-initial cut nothing is in transit (nothing sent in
	// interval <= 0).
	msgs, err = InTransit(p, model.GlobalCheckpoint{0, 0, 0})
	if err != nil {
		t.Fatalf("in transit: %v", err)
	}
	if len(msgs) != 0 {
		t.Errorf("in transit at origin = %v, want none", msgs)
	}
	if _, err := InTransit(p, model.GlobalCheckpoint{9, 9}); err == nil {
		t.Error("bad cut accepted")
	}
}

func TestCheckRDTByChainsOnFigure1(t *testing.T) {
	p := figure1(t)
	c, err := NewChains(p)
	if err != nil {
		t.Fatalf("chains: %v", err)
	}
	rep := c.CheckRDTByChains(8)
	if rep.RDT {
		t.Fatal("chain characterization missed the Figure 1 violation")
	}
	found := false
	for _, v := range rep.Violations {
		if v.From == ck(trace.Pk, 1) && v.To == ck(trace.Pi, 2) {
			found = true
		}
	}
	if !found {
		t.Errorf("violations = %v, want to include C_k1 ~> C_i2", rep.Violations)
	}
	// The doubled chain of the figure: [m5 m4] has sibling [m5 m6].
	if !c.CausallyDoubled(ck(trace.Pi, 3), ck(trace.Pk, 2)) {
		t.Error("[m5 m4] should be causally doubled by [m5 m6]")
	}
	if c.CausallyDoubled(ck(trace.Pk, 1), ck(trace.Pi, 2)) {
		t.Error("[m3 m2] has no causal sibling")
	}
}

func TestRollbackClosureFigure1(t *testing.T) {
	g, err := Build(figure1(t))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	got := g.RollbackClosure(ck(trace.Pi, 3))
	want := []model.CkptID{
		ck(trace.Pi, 3),
		ck(trace.Pj, 2), ck(trace.Pj, 3),
		ck(trace.Pk, 2), ck(trace.Pk, 3),
	}
	if len(got) != len(want) {
		t.Fatalf("closure = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("closure = %v, want %v", got, want)
		}
	}
	// Rolling back past an initial checkpoint dooms everything downstream
	// of its messages; closure of all initials covers the whole graph.
	all := g.RollbackClosure(ck(trace.Pi, 0), ck(trace.Pj, 0), ck(trace.Pk, 0))
	if len(all) != g.NumNodes() {
		t.Errorf("closure of initials = %d nodes, want %d", len(all), g.NumNodes())
	}
}

func TestReachableCountFigure1(t *testing.T) {
	g, err := Build(figure1(t))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	// C_{i,3} reaches the four checkpoints listed in the rollback-closure
	// test (itself excluded: paths have length >= 1 and there is no cycle).
	if got := g.ReachableCount(ck(trace.Pi, 3)); got != 4 {
		t.Errorf("reachable from C_i3 = %d, want 4", got)
	}
}

func TestRGraphDOT(t *testing.T) {
	g, err := Build(figure1(t))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	dot := g.DOT()
	for _, want := range []string{"digraph rgraph", "r0_0", "r2_3", "cluster_p1", "style=dotted"} {
		if !strings.Contains(dot, want) {
			t.Errorf("R-graph DOT missing %q", want)
		}
	}
	if strings.Contains(dot, "salmon") {
		t.Error("acyclic figure rendered cycle highlights")
	}

	// zcycle.json has cycles: its DOT, four highlighted nodes, is pinned
	// byte for byte.
	p, err := trace.LoadFile("../trace/testdata/zcycle.json")
	if err != nil {
		t.Fatal(err)
	}
	if g, err = Build(p); err != nil {
		t.Fatalf("build: %v", err)
	}
	want, err := os.ReadFile("testdata/zcycle_rgraph.dot")
	if err != nil {
		t.Fatal(err)
	}
	if got := g.DOT(); got != string(want) {
		t.Errorf("zcycle R-graph DOT differs from testdata/zcycle_rgraph.dot:\n%s", got)
	}
}

func TestCountChainsFigure1(t *testing.T) {
	c, err := NewChains(figure1(t))
	if err != nil {
		t.Fatalf("chains: %v", err)
	}
	chains, causal := c.CountChains()
	if causal > chains {
		t.Fatalf("causal pairs %d exceed chain pairs %d", causal, chains)
	}
	if chains == 0 || causal == 0 {
		t.Fatalf("counts degenerate: %d %d", chains, causal)
	}
	// Figure 1 is not RDT, so some chain pair must lack a causal chain.
	if causal == chains {
		t.Error("all chain pairs causal although the figure violates RDT")
	}
}
