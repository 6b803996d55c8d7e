package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: github.com/rdt-go/rdt
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFigRandomEnvironment 	       2	 512000000 ns/op	         5.261 R(bhmr)	         5.644 R(fdas)
BenchmarkClusterThroughput-8 	  197968	     13526 ns/op	    1576 B/op	       6 allocs/op
BenchmarkObsInstruments/counter 	500000000	         2.145 ns/op
PASS
ok  	github.com/rdt-go/rdt	12.3s
`

func TestParse(t *testing.T) {
	rs, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(rs) != 3 {
		t.Fatalf("parsed %d results, want 3", len(rs))
	}
	fig := rs[0]
	if fig.Name != "BenchmarkFigRandomEnvironment" || fig.NsPerOp != 512000000 {
		t.Errorf("figure = %+v", fig)
	}
	if fig.Metrics["R(bhmr)"] != 5.261 || fig.Metrics["R(fdas)"] != 5.644 {
		t.Errorf("custom metrics = %v", fig.Metrics)
	}
	cluster := rs[1]
	if cluster.Name != "BenchmarkClusterThroughput" {
		t.Errorf("GOMAXPROCS suffix not stripped: %q", cluster.Name)
	}
	if cluster.AllocsPerOp != 6 || cluster.BytesPerOp != 1576 {
		t.Errorf("memstats = %+v", cluster)
	}
	if rs[2].Name != "BenchmarkObsInstruments/counter" || rs[2].NsPerOp != 2.145 {
		t.Errorf("sub-benchmark = %+v", rs[2])
	}
}

func TestWriteAndCompare(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH.json")

	var out strings.Builder
	if err := run([]string{"-out", path}, strings.NewReader(sample), &out); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("record not written: %v", err)
	}

	// Identical numbers pass the gate.
	out.Reset()
	if err := run([]string{"-baseline", path}, strings.NewReader(sample), &out); err != nil {
		t.Fatalf("identical compare failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "within") {
		t.Errorf("missing summary: %s", out.String())
	}

	// A 10x ns/op regression fails the gate and names the benchmark.
	regressed := strings.Replace(sample, "13526 ns/op", "135260 ns/op", 1)
	out.Reset()
	err := run([]string{"-baseline", path}, strings.NewReader(regressed), &out)
	if err == nil {
		t.Fatal("10x regression passed the gate")
	}
	if !strings.Contains(err.Error(), "BenchmarkClusterThroughput") {
		t.Errorf("regression error does not name the benchmark: %v", err)
	}

	// Within tolerance passes: +10% against the default 15%.
	slightly := strings.Replace(sample, "13526 ns/op", "14800 ns/op", 1)
	out.Reset()
	if err := run([]string{"-baseline", path}, strings.NewReader(slightly), &out); err != nil {
		t.Fatalf("+10%% failed the 15%% gate: %v", err)
	}

	// Allocation growth alone never gates.
	allocs := strings.Replace(sample, "6 allocs/op", "600 allocs/op", 1)
	out.Reset()
	if err := run([]string{"-baseline", path}, strings.NewReader(allocs), &out); err != nil {
		t.Fatalf("alloc growth failed the ns/op gate: %v", err)
	}

	// A nanosecond-scale benchmark (2.145 ns/op baseline) is below the
	// default -min-ns floor: even a 10x swing is timer jitter, not a
	// regression.
	jitter := strings.Replace(sample, "2.145 ns/op", "21.45 ns/op", 1)
	out.Reset()
	if err := run([]string{"-baseline", path}, strings.NewReader(jitter), &out); err != nil {
		t.Fatalf("sub-min-ns benchmark gated: %v", err)
	}
	if !strings.Contains(out.String(), "no-gate") {
		t.Errorf("missing no-gate status: %s", out.String())
	}

	// Lowering -min-ns re-enables the gate for it.
	out.Reset()
	if err := run([]string{"-baseline", path, "-min-ns", "1"}, strings.NewReader(jitter), &out); err == nil {
		t.Error("10x regression passed with -min-ns 1")
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run(nil, strings.NewReader(sample), &out); err == nil {
		t.Error("no-op invocation accepted")
	}
	if err := run([]string{"-out", filepath.Join(t.TempDir(), "x.json")},
		strings.NewReader("no benchmarks here"), &out); err == nil {
		t.Error("empty input accepted")
	}
	if err := run([]string{"-baseline", filepath.Join(t.TempDir(), "missing.json")},
		strings.NewReader(sample), &out); err == nil {
		t.Error("missing baseline accepted")
	}
}

// TestParseMergesRepeats: with -count=N, the fastest of the repeated runs
// is kept.
func TestParseMergesRepeats(t *testing.T) {
	input := `BenchmarkX 	100	 500 ns/op	 10 B/op	 2 allocs/op
BenchmarkX 	100	 300 ns/op	 10 B/op	 2 allocs/op
BenchmarkX 	100	 450 ns/op	 10 B/op	 2 allocs/op
`
	rs, err := parse(strings.NewReader(input))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(rs) != 1 || rs[0].NsPerOp != 300 {
		t.Fatalf("merged = %+v, want single result at 300 ns/op", rs)
	}
}
