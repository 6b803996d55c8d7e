package rgraph

import (
	"errors"
	"math/rand"
	"slices"
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

// crowdedPattern builds a pattern whose first interval on every process
// holds hundreds of endpoints, sends and deliveries interleaved at random,
// followed by a checkpoint of process 0 only: the other processes' crowd
// stays in their open interval.
func crowdedPattern(t *testing.T, seed int64) *model.Pattern {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := model.NewBuilder(3)
	var inflight []int
	for e := 0; e < 900; e++ {
		if len(inflight) == 0 || rng.Intn(2) == 0 {
			from := model.ProcID(rng.Intn(3))
			inflight = append(inflight, b.Send(from, (from+1+model.ProcID(rng.Intn(2)))%3))
			continue
		}
		k := rng.Intn(len(inflight))
		if err := b.Deliver(inflight[k]); err != nil {
			t.Fatal(err)
		}
		inflight = append(inflight[:k], inflight[k+1:]...)
	}
	for _, h := range inflight {
		if err := b.Deliver(h); err != nil {
			t.Fatal(err)
		}
	}
	b.Checkpoint(0, model.KindBasic, nil)
	p, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPrepareMatchesSortOracle: prepare lays the events out by (process,
// interval) and sorts only inside an interval, and its lists equal
// prepareBySort's, which sorts each process's events whole. One Analyzer
// runs the property corpus, the same patterns with p.Messages shuffled,
// and crowded intervals of hundreds of endpoints.
func TestPrepareMatchesSortOracle(t *testing.T) {
	a := NewAnalyzer()
	check := func(label string, seed int64, p *model.Pattern) {
		t.Helper()
		if err := a.prepare(p); err != nil {
			t.Fatalf("%s %d: %v", label, seed, err)
		}
		for i, want := range prepareBySort(p) {
			if !slices.Equal(a.perProc[i], want) {
				t.Fatalf("%s %d: process %d's events differ from the sorted list:\n  got  %v\n  want %v", label, seed, i, a.perProc[i], want)
			}
		}
	}
	for seed := int64(1); seed <= propertySeeds; seed++ {
		p := buildFixture(t, seed).p
		check("property corpus", seed, p)
		shuffled := *p
		shuffled.Messages = slices.Clone(p.Messages)
		rand.New(rand.NewSource(seed)).Shuffle(len(shuffled.Messages), func(i, j int) {
			shuffled.Messages[i], shuffled.Messages[j] = shuffled.Messages[j], shuffled.Messages[i]
		})
		check("shuffled", seed, &shuffled)
	}
	for seed := int64(1); seed <= 5; seed++ {
		check("crowded", seed, crowdedPattern(t, seed))
	}
}

// TestReplayIncrementalRefusesInvalid: an endpoint in an interval out of
// its process's range is Validate's error, not an index out of range in
// prepare's layout.
func TestReplayIncrementalRefusesInvalid(t *testing.T) {
	p := randomPattern(t, 1, 3, 60)
	for _, interval := range []int{-1, 0, len(p.Checkpoints[p.Messages[0].To]) + 1, 1 << 20} {
		bad := *p
		bad.Messages = slices.Clone(p.Messages)
		bad.Messages[0].DeliverInterval = interval
		if _, err := ReplayIncremental(&bad); !errors.Is(err, model.ErrInvalidPattern) {
			t.Errorf("delivery interval %d: ReplayIncremental = %v, want a model.ErrInvalidPattern", interval, err)
		}
	}
	if _, err := ReplayIncremental(p); err != nil {
		t.Fatalf("the valid pattern: %v", err)
	}
}
