package scenario

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden transcripts")

// TestCorpus runs every seed scenario in corpus/ twice, checks its
// expectations, and requires byte-identical transcripts — supervised
// scenarios included.
func TestCorpus(t *testing.T) {
	files, err := filepath.Glob("corpus/*.rdts")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 10 {
		t.Fatalf("corpus has %d scenarios, want >= 10", len(files))
	}
	for _, file := range files {
		file := file
		t.Run(strings.TrimSuffix(filepath.Base(file), ".rdts"), func(t *testing.T) {
			t.Parallel()
			sc, err := ParseFile(file)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(sc, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Passed() {
				t.Fatalf("expectations failed: %v\ntranscript:\n%s", res.Failures, res.Transcript)
			}
			sc2, _ := ParseFile(file)
			res2, err := Run(sc2, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Transcript != res2.Transcript {
				t.Fatal("transcript not reproducible across runs")
			}
		})
	}
}

// TestGoldenTranscript pins the exact transcripts of two corpus
// scenarios, one unsupervised and one supervised: any change to
// scheduling, fault injection, failure detection or checker behavior
// that shifts the deterministic replay shows up as a byte diff here.
// Refresh with: go test ./internal/scenario -run TestGolden -update
func TestGoldenTranscript(t *testing.T) {
	for _, name := range []string{"figure1-zigzag", "supervised-failover"} {
		t.Run(name, func(t *testing.T) {
			src := "corpus/" + name + ".rdts"
			golden := "testdata/" + name + ".golden"
			sc, err := ParseFile(src)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(sc, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(res.Transcript), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if res.Transcript != string(want) {
				t.Fatalf("transcript drifted from golden:\n--- want ---\n%s\n--- have ---\n%s", want, res.Transcript)
			}
		})
	}
}
