package rgraph

import (
	"fmt"
	"math/bits"

	"github.com/rdt-go/rdt/internal/model"
)

// Violation describes one R-path that is not on-line trackable: rolling
// back past From forces rolling back past To, but no causal message chain
// (and hence no transitive dependency vector) witnesses the dependency.
type Violation struct {
	From, To model.CkptID
}

// String renders the violation as "C{i,x} ~> C{j,y} untrackable". Built
// by concatenation, not fmt: a read of the service's event tail renders
// up to a whole ring of violations with it.
func (v Violation) String() string {
	return v.From.String() + " ~> " + v.To.String() + " untrackable"
}

// Report is the result of an offline RDT check of a pattern.
type Report struct {
	// RDT is true when every R-path of the pattern is on-line trackable
	// (Definition 3.4).
	RDT bool
	// Violations lists the untrackable R-paths (capped at the limit given
	// to CheckRDT); empty when RDT holds.
	Violations []Violation
	// RPathPairs is the number of ordered checkpoint pairs (a, b) with an
	// R-path a -> b.
	RPathPairs int
	// TrackablePairs is the number of such pairs that are on-line
	// trackable.
	TrackablePairs int
}

// CheckRDT verifies the Rollback-Dependency Trackability property of a
// pattern: for every ordered pair of checkpoints connected by an R-path,
// the dependency must be trackable through a causal message chain, i.e.
// TDV_{to}[from.Proc] >= from.Index on the offline dependency vectors.
// maxViolations caps the number of reported violations (<= 0 means 16).
func CheckRDT(p *model.Pattern, maxViolations int) (*Report, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("rgraph: %w", err)
	}
	g, err := build(p)
	if err != nil {
		return nil, err
	}
	return CheckRDTGraph(g, NewAnalyzer(), maxViolations)
}

// CheckRDTGraph is CheckRDT on an already-built graph: a computes the
// TDVs of g.Pattern(), which Build validated, without validating again.
func CheckRDTGraph(g *Graph, a *Analyzer, maxViolations int) (*Report, error) {
	tdvs, err := a.computeTDVs(g.Pattern())
	if err != nil {
		return nil, err
	}
	return checkRDT(g, tdvs, maxViolations), nil
}

// checkRDT scans the closure rows a word at a time instead of testing
// pairs. C_{i,x} -> b is untrackable iff TDV_b[i] < x, so for a fixed
// source process i the untrackable targets of C_{i,x} are the nodes
// whose entry i is below x: a set U that only grows with x. The nodes
// are bucketed by entry i once per process; for x = 0, 1, ... the row of
// C_{i,x} is and-ed with U, and then bucket x joins U. Node ids run in
// (process, index) order, so the set bits of row & U are the violations
// in the (i, x, j, y) order of a pair-by-pair enumeration. The cost is
// ⌈C/64⌉ words per source plus n·C bucket steps, instead of C² pair
// tests.
func checkRDT(g *Graph, tdvs *TDVTable, maxViolations int) *Report {
	if maxViolations <= 0 {
		maxViolations = 16
	}
	p := g.Pattern()
	rep := &Report{RDT: true}
	longest := 0
	for i := 0; i < p.N; i++ {
		longest = max(longest, len(p.Checkpoints[i]))
	}
	// order holds every node id sorted by entry i of its TDV (a counting
	// sort); bucket x is order[bucket[x]:bucket[x+1]]. Entry i of a
	// vector is 0, the node's own index on process i, or an interval in
	// which i sent a message, and Build refuses sends in the open
	// interval, so it is below i's checkpoint count.
	order := make([]int, g.nodes)
	arena := make([]int, longest+2)
	untracked := newBitset(g.nodes)
	untrackable := 0
	for i := 0; i < p.N; i++ {
		sources := len(p.Checkpoints[i])
		bucket := arena[:sources+2]
		clear(bucket)
		for j := 0; j < p.N; j++ {
			for _, v := range tdvs.vecs[j] {
				bucket[v[i]+2]++
			}
		}
		for x := 2; x < len(bucket); x++ {
			bucket[x] += bucket[x-1]
		}
		for j := 0; j < p.N; j++ {
			for y, v := range tdvs.vecs[j] {
				order[bucket[v[i]+1]] = g.offset[j] + y
				bucket[v[i]+1]++
			}
		}
		clear(untracked)
		for x := 0; x < sources; x++ {
			from := model.CkptID{Proc: model.ProcID(i), Index: x}
			for w, row := range g.reach[g.offset[i]+x] {
				if row == 0 {
					continue
				}
				rep.RPathPairs += bits.OnesCount64(row)
				bad := row & untracked[w]
				if bad == 0 {
					continue
				}
				rep.RDT = false
				untrackable += bits.OnesCount64(bad)
				for ; bad != 0 && len(rep.Violations) < maxViolations; bad &= bad - 1 {
					to := g.ckpt(w<<6 + bits.TrailingZeros64(bad))
					rep.Violations = append(rep.Violations, Violation{From: from, To: to})
				}
			}
			for _, b := range order[bucket[x]:bucket[x+1]] {
				untracked.set(b)
			}
		}
	}
	rep.TrackablePairs = rep.RPathPairs - untrackable
	return rep
}

// VerifyRecordedTDVs checks that the dependency vectors recorded with the
// checkpoints of the pattern (by an on-line protocol) match the offline
// ones. Checkpoints without a recorded vector are skipped. It returns the
// first mismatch found, or nil.
func VerifyRecordedTDVs(p *model.Pattern) error {
	tdvs, err := ComputeTDVs(p)
	if err != nil {
		return err
	}
	for i := 0; i < p.N; i++ {
		for x := range p.Checkpoints[i] {
			ck := &p.Checkpoints[i][x]
			if ck.TDV == nil {
				continue
			}
			want := tdvs.At(ck.ID())
			for k := range want {
				if ck.TDV[k] != want[k] {
					return fmt.Errorf("checkpoint %v: recorded TDV %v differs from offline TDV %v",
						ck.ID(), ck.TDV, want)
				}
			}
		}
	}
	return nil
}

// CheckLemma41 verifies Lemma 4.1 on the pattern: for any two distinct
// processes i and k, there are never two on-line trackable R-paths
// C_{i,x} -> C_{k,z-1} and C_{k,z} -> C_{i,x}. It returns an error
// describing the first counterexample found, or nil. The lemma holds for
// every run of an RDT protocol; it can fail on uncoordinated patterns.
func CheckLemma41(p *model.Pattern) error {
	tdvs, err := ComputeTDVs(p)
	if err != nil {
		return err
	}
	g, err := Build(p)
	if err != nil {
		return err
	}
	for i := 0; i < p.N; i++ {
		for x := range p.Checkpoints[i] {
			a := model.CkptID{Proc: model.ProcID(i), Index: x}
			for k := 0; k < p.N; k++ {
				if k == i {
					continue
				}
				for z := 1; z < len(p.Checkpoints[k]); z++ {
					prev := model.CkptID{Proc: model.ProcID(k), Index: z - 1}
					cur := model.CkptID{Proc: model.ProcID(k), Index: z}
					if g.HasRPath(a, prev) && tdvs.Trackable(a, prev) &&
						g.HasRPath(cur, a) && tdvs.Trackable(cur, a) {
						return fmt.Errorf("lemma 4.1 violated: trackable %v -> %v and %v -> %v",
							a, prev, cur, a)
					}
				}
			}
		}
	}
	return nil
}
