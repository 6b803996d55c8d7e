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
	g, err := Build(p)
	if err != nil {
		return nil, err
	}
	tdvs, err := ComputeTDVs(p)
	if err != nil {
		return nil, err
	}
	return checkRDT(g, tdvs, maxViolations), nil
}

// CheckRDTGraph is CheckRDT on an already-built graph and TDV table.
func CheckRDTGraph(g *Graph, tdvs *TDVTable, maxViolations int) *Report {
	return checkRDT(g, tdvs, maxViolations)
}

func checkRDT(g *Graph, tdvs *TDVTable, maxViolations int) *Report {
	if maxViolations <= 0 {
		maxViolations = 16
	}
	p := g.Pattern()
	rep := &Report{RDT: true}
	for i := 0; i < p.N; i++ {
		for x := range p.Checkpoints[i] {
			a := model.CkptID{Proc: model.ProcID(i), Index: x}
			for j := 0; j < p.N; j++ {
				for y := range p.Checkpoints[j] {
					b := model.CkptID{Proc: model.ProcID(j), Index: y}
					if !g.HasRPath(a, b) {
						continue
					}
					rep.RPathPairs++
					if tdvs.Trackable(a, b) {
						rep.TrackablePairs++
						continue
					}
					rep.RDT = false
					if len(rep.Violations) < maxViolations {
						rep.Violations = append(rep.Violations, Violation{From: a, To: b})
					}
				}
			}
		}
	}
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
