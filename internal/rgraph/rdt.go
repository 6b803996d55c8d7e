package rgraph

import (
	"fmt"

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
	rep, _, err := NewAnalyzer().CheckRDT(p, maxViolations)
	return rep, err
}

// CheckRDT is the package-level CheckRDT with scratch reuse, and it also
// returns the R-graph the check built, so a caller that goes on to read
// the graph lays the pattern out and validates it once.
func (a *Analyzer) CheckRDT(p *model.Pattern, maxViolations int) (*Report, *Graph, error) {
	if err := a.prepare(p); err != nil {
		return nil, nil, fmt.Errorf("rgraph: %w", err)
	}
	g, err := build(p)
	if err != nil {
		return nil, nil, err
	}
	tdvs, err := a.computeTDVs(p)
	if err != nil {
		return nil, nil, err
	}
	return checkRDT(g, tdvs, maxViolations), g, nil
}

// checkRDT walks one pointer per pair of processes instead of testing
// checkpoint pairs. The R-paths from C_{i,x} reach the checkpoints of
// process j from its reach index r on. C_{i,x} -> C_{j,y} is untrackable
// iff TDV_{j,y}[i] < x, and TDV_{j,y}[i] does not decrease in y, so the
// untrackable targets on j are those from r up to tracked[j], the first
// y with TDV_{j,y}[i] >= x, and tracked[j] only rises with x. The violations
// come in the (i, x, j, y) order of a pair-by-pair enumeration, and the
// cost is O(n·C) steps for C checkpoints instead of C² pair tests.
func checkRDT(g *Graph, tdvs *TDVTable, maxViolations int) *Report {
	if maxViolations <= 0 {
		maxViolations = 16
	}
	p := g.Pattern()
	rep := &Report{RDT: true}
	untrackable := 0
	tracked := make([]int, p.N)
	for i := 0; i < p.N; i++ {
		clear(tracked)
		for x := range p.Checkpoints[i] {
			from := model.CkptID{Proc: model.ProcID(i), Index: x}
			for j, r := range g.reachOf(from) {
				count, row := len(p.Checkpoints[j]), tdvs.first[j]
				t := tracked[j]
				for t < count && tdvs.mem[(row+t)*p.N+i] < x {
					t++
				}
				tracked[j] = t
				rep.RPathPairs += count - int(r)
				if int(r) >= t {
					continue
				}
				rep.RDT = false
				untrackable += t - int(r)
				for y := int(r); y < t && len(rep.Violations) < maxViolations; y++ {
					rep.Violations = append(rep.Violations, Violation{From: from, To: model.CkptID{Proc: model.ProcID(j), Index: y}})
				}
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
