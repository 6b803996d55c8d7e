package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// smoke is every workload at a fiftieth of its nominal length, with one
// set-up instead of five.
var smoke = params{seed: 3, seconds: nominalSeconds / 50.0, setups: 1}

func testEnv(t *testing.T) *env {
	t.Helper()
	e, err := newEnv(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.close)
	return e
}

// TestDeclared holds BENCHMARK.json and the code's tables together.
func TestDeclared(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDeclared(bf); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := make(map[string]bool)
	check := func(name string) {
		if !valid.MatchString(name) {
			t.Errorf("name %q is not made of letters, digits, '_', '.' and '-'", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	for _, m := range endToEnd {
		check(m.name)
	}
	for _, m := range perLayer {
		check(m.name)
	}
	if bf.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds is %d, the workloads are sized for %d", bf.RunSeconds, nominalSeconds)
	}
}

// TestSmoke drives every workload against the real binaries and checks
// that each prints every declared end-to-end metric exactly once, that
// every verdict matches its reference and that nothing failed.
func TestSmoke(t *testing.T) {
	e := testEnv(t)
	for i := range workloads {
		w := &workloads[i]
		var out bytes.Buffer
		res, err := report(context.Background(), e, w, smoke, false, ladderSmoke, &out)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: correct=%v, %d of %d failed\n%s", w.name, res.Correct, res.Failed, res.Attempted, out.String())
		}
		printedOnce(t, w.name, out.String(), len(endToEnd), func(i int) string { return endToEnd[i].name })
		for name, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.name, name, m.Value)
			}
		}
	}
}

// TestTraced runs the traced half at one session per rung: every
// declared per-layer metric printed exactly once, and a span file whose
// parents resolve.
func TestTraced(t *testing.T) {
	e := testEnv(t)
	w := workloadByName("durable-rotate")
	var out bytes.Buffer
	if _, err := report(context.Background(), e, w, smoke, true, ladderSmoke, &out); err != nil {
		t.Fatal(err)
	}
	printedOnce(t, w.name, out.String(), len(perLayer), func(i int) string { return perLayer[i].name })
	data, err := os.ReadFile(filepath.Join(e.outDir, "trace-"+w.name+".json"))
	if err != nil {
		t.Fatalf("span file: %v", err)
	}
	var file struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Dur  float64 `json:"dur"`
			Args struct{ Span, Parent, Batch int }
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("span file: %v", err)
	}
	if len(file.TraceEvents) < 100 {
		t.Fatalf("span file holds %d spans", len(file.TraceEvents))
	}
	for i, ev := range file.TraceEvents {
		if ev.Args.Span != i || ev.Args.Parent >= i || ev.Args.Parent < -1 {
			t.Errorf("span %d (%s): id %d, parent %d: a parent must precede its child", i, ev.Name, ev.Args.Span, ev.Args.Parent)
		}
		if ev.Dur < 0 {
			t.Errorf("span %d (%s) ends before it starts", i, ev.Name)
		}
	}
}

// printedOnce checks that each of the n names starts exactly one line.
func printedOnce(t *testing.T, workload, out string, n int, name func(int) string) {
	t.Helper()
	count := make(map[string]int)
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			count[f[0]]++
		}
	}
	for i := 0; i < n; i++ {
		if c := count[name(i)]; c != 1 {
			t.Errorf("%s: metric %s printed %d times, want once\n%s", workload, name(i), c, out)
		}
	}
}

// TestInputsRepeat checks that a seed fixes the inputs and the
// reference verdicts byte for byte, for both traffic families.
func TestInputsRepeat(t *testing.T) {
	for _, family := range []string{famUnprotected, famBHMR} {
		a, err := genPool(family, 5, 3, 1024, 128)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := genPool(family, 5, 3, 1024, 128)
		c, _ := genPool(family, 6, 3, 1024, 128)
		if poolDigest(a) != poolDigest(b) {
			t.Errorf("%s: two pools from one seed differ", family)
		}
		if poolDigest(a) == poolDigest(c) {
			t.Errorf("%s: two seeds gave the same pool", family)
		}
		for i := range a {
			for j := range a[i].bodies {
				if !bytes.Equal(a[i].bodies[j], b[i].bodies[j]) {
					t.Fatalf("%s: session %d body %d differs between two runs", family, i, j)
				}
			}
		}
		// RDT is what tells the families apart.
		if want := family == famBHMR; a[0].ref.RDT != want {
			t.Errorf("%s: reference says rdt=%v, want %v", family, a[0].ref.RDT, want)
		}
	}
}

// checkDeclared reports the first difference between what the code
// declares and what BENCHMARK.json does.
func checkDeclared(bf *benchmarkFile) error {
	if len(bf.Workloads) != len(workloads) {
		return fmt.Errorf("BENCHMARK.json declares %d workloads, the code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			return fmt.Errorf("workload %d: BENCHMARK.json says %q (%q), the code %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		return fmt.Errorf("BENCHMARK.json declares %d end-to-end metrics, the code %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			return fmt.Errorf("end-to-end metric %d: BENCHMARK.json says %s [%s], the code %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		return fmt.Errorf("BENCHMARK.json declares %d per-layer metrics, the code %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit || m.Better != perLayer[i].better {
			return fmt.Errorf("per-layer metric %d: BENCHMARK.json says %s [%s, %s], the code %s [%s, %s]",
				i, m.Name, m.Unit, m.Better, perLayer[i].name, perLayer[i].unit, perLayer[i].better)
		}
	}
	return nil
}
