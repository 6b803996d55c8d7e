package rgraph

import (
	"testing"

	"github.com/rdt-go/rdt/internal/model"
)

// TestAnalyzerReuseMatchesFresh runs one Analyzer across many
// differently-shaped patterns and checks every reused result against a
// freshly allocated computation: scratch reuse must never leak state from
// one pattern into the next.
func TestAnalyzerReuseMatchesFresh(t *testing.T) {
	a := NewAnalyzer()
	for seed := int64(0); seed < 20; seed++ {
		p := randomPattern(t, seed, 2+int(seed%5), 30+int(seed%60))

		want, err := ComputeTDVs(p)
		if err != nil {
			t.Fatalf("seed %d: fresh tdvs: %v", seed, err)
		}
		got, err := a.ComputeTDVs(p)
		if err != nil {
			t.Fatalf("seed %d: reused tdvs: %v", seed, err)
		}
		for i := 0; i < p.N; i++ {
			for x := range p.Checkpoints[i] {
				id := model.CkptID{Proc: model.ProcID(i), Index: x}
				if !want.At(id).Equal(got.At(id)) {
					t.Fatalf("seed %d: TDV of %v = %v, want %v", seed, id, got.At(id), want.At(id))
				}
			}
		}

		wantRep, err := CheckRDT(p, 8)
		if err != nil {
			t.Fatalf("seed %d: fresh check: %v", seed, err)
		}
		g, err := Build(p)
		if err != nil {
			t.Fatalf("seed %d: build: %v", seed, err)
		}
		gotRep := checkRDT(g, got, 8)
		if wantRep.RDT != gotRep.RDT ||
			wantRep.RPathPairs != gotRep.RPathPairs ||
			wantRep.TrackablePairs != gotRep.TrackablePairs ||
			len(wantRep.Violations) != len(gotRep.Violations) {
			t.Fatalf("seed %d: reused report %+v, fresh report %+v", seed, gotRep, wantRep)
		}
	}
}

// TestAnalyzerResultsSurviveReuse: a TDVTable returned by an Analyzer must
// stay valid after the Analyzer processes another pattern (only scratch is
// reused, never result storage).
func TestAnalyzerResultsSurviveReuse(t *testing.T) {
	a := NewAnalyzer()
	p1 := randomPattern(t, 1, 4, 80)
	first, err := a.ComputeTDVs(p1)
	if err != nil {
		t.Fatalf("tdvs: %v", err)
	}
	snapshot := make(map[model.CkptID]string)
	for i := 0; i < p1.N; i++ {
		for x := range p1.Checkpoints[i] {
			id := model.CkptID{Proc: model.ProcID(i), Index: x}
			snapshot[id] = first.At(id).String()
		}
	}

	// Churn the analyzer with other patterns.
	for seed := int64(2); seed < 6; seed++ {
		if _, err := a.ComputeTDVs(randomPattern(t, seed, 3, 120)); err != nil {
			t.Fatalf("churn: %v", err)
		}
	}

	for id, want := range snapshot {
		if got := first.At(id).String(); got != want {
			t.Fatalf("TDV of %v mutated by later analyses: %s, was %s", id, got, want)
		}
	}
}
