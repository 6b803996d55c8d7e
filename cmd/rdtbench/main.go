// Command rdtbench turns `go test -bench` output into a machine-readable
// benchmark record and gates changes against a committed baseline.
//
// It reads benchmark text from stdin and either writes a JSON record
// (-out) or compares the fresh numbers against a previously written
// record (-baseline), failing when any benchmark's ns/op regressed by
// more than the tolerance (sub-nanosecond-scale benchmarks below -min-ns
// are exempt). Only ns/op gates: B/op, allocs/op and custom metrics (the
// R values the figure benchmarks report) are recorded and printed for
// context but never fail the run, since the repository treats them as
// tracked observables rather than hard budgets. End-to-end ingest
// throughput is not measured here: bench/ drives the real daemon
// (`bash bench/run.sh`, workloads mem-rotate and json-rotate).
//
// Usage:
//
//	go test -bench . -benchmem -run '^$' . | rdtbench -out results/BENCH_4.json
//	go test -bench . -benchmem -run '^$' . | rdtbench -baseline results/BENCH_4.json -tolerance 0.15
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"github.com/rdt-go/rdt/internal/version"
)

// Result is the parsed record of one benchmark.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// File is the benchmark record written to disk.
type File struct {
	Note       string   `json:"note,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rdtbench:", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("rdtbench", flag.ContinueOnError)
	var (
		outPath   = fs.String("out", "", "write the parsed benchmarks as JSON to this path")
		baseline  = fs.String("baseline", "", "compare against this previously written JSON record")
		tolerance = fs.Float64("tolerance", 0.15, "allowed fractional regression before failing")
		minNs     = fs.Float64("min-ns", 100, "baselines faster than this never gate (timer jitter dominates)")
		note      = fs.String("note", "", "free-form note stored in the JSON record")

		showVersion = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		fmt.Fprintf(out, "rdtbench %s\n", version.String())
		return nil
	}
	if *outPath == "" && *baseline == "" {
		return fmt.Errorf("nothing to do: pass -out and/or -baseline")
	}

	fresh, err := parse(in)
	if err != nil {
		return err
	}
	if len(fresh) == 0 {
		return fmt.Errorf("no benchmark lines found on stdin")
	}

	if *outPath != "" {
		data, err := json.MarshalIndent(File{Note: *note, Benchmarks: fresh}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d benchmarks to %s\n", len(fresh), *outPath)
	}

	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		if err != nil {
			return err
		}
		var base File
		if err := json.Unmarshal(data, &base); err != nil {
			return fmt.Errorf("parse baseline %s: %w", *baseline, err)
		}
		return compare(out, base.Benchmarks, fresh, *tolerance, *minNs)
	}
	return nil
}

// benchLine matches one benchmark result line, e.g.
//
//	BenchmarkClusterThroughput-8   197968   13526 ns/op   1576 B/op   6 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

// parse extracts the benchmark results from `go test -bench` output.
// Repeated runs of one benchmark (go test -count=N) are merged by taking
// the line with the lowest ns/op — the run least disturbed by the
// machine's other load — which is what makes the regression gate usable
// on noisy hosts.
func parse(in io.Reader) ([]Result, error) {
	var out []Result
	byName := map[string]int{}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		r := Result{Name: m[1], Iterations: iters}
		fields := strings.Fields(m[3])
		// The tail is (value, unit) pairs.
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchmark %s: bad value %q", r.Name, fields[i])
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp = v
			case "allocs/op":
				r.AllocsPerOp = v
			case "MB/s":
				// Throughput is derivable from ns/op; skip.
			default:
				if r.Metrics == nil {
					r.Metrics = map[string]float64{}
				}
				r.Metrics[unit] = v
			}
		}
		if i, seen := byName[r.Name]; seen {
			if r.NsPerOp < out[i].NsPerOp {
				out[i] = r
			}
			continue
		}
		byName[r.Name] = len(out)
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// compare gates fresh results against the baseline: any benchmark whose
// ns/op grew by more than tolerance fails the run. Benchmarks present on
// only one side are reported but never fail (the suite may grow or
// shrink), and neither do benchmarks whose baseline is under minNs —
// at single- and double-digit nanoseconds, timer resolution and cache
// placement produce relative swings far past any useful tolerance.
func compare(out io.Writer, base, fresh []Result, tolerance, minNs float64) error {
	baseByName := make(map[string]Result, len(base))
	for _, r := range base {
		baseByName[r.Name] = r
	}

	var regressions []string
	for _, f := range fresh {
		b, ok := baseByName[f.Name]
		if !ok {
			fmt.Fprintf(out, "new       %-45s %12.0f ns/op (no baseline)\n", f.Name, f.NsPerOp)
			continue
		}
		delete(baseByName, f.Name)
		delta := 0.0
		if b.NsPerOp > 0 {
			delta = (f.NsPerOp - b.NsPerOp) / b.NsPerOp
		}
		status := "ok"
		if b.NsPerOp < minNs {
			status = "no-gate"
		} else if delta > tolerance {
			status = "REGRESSED"
			regressions = append(regressions,
				fmt.Sprintf("%s: %.0f -> %.0f ns/op (%+.1f%%, tolerance %.0f%%)",
					f.Name, b.NsPerOp, f.NsPerOp, 100*delta, 100*tolerance))
		}
		fmt.Fprintf(out, "%-9s %-45s %12.0f -> %-12.0f ns/op (%+6.1f%%)  allocs %.0f -> %.0f\n",
			status, f.Name, b.NsPerOp, f.NsPerOp, 100*delta, b.AllocsPerOp, f.AllocsPerOp)
	}

	var gone []string
	for name := range baseByName {
		gone = append(gone, name)
	}
	sort.Strings(gone)
	for _, name := range gone {
		fmt.Fprintf(out, "gone      %s (in baseline, not in fresh run)\n", name)
	}

	if len(regressions) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed beyond tolerance:\n  %s",
			len(regressions), strings.Join(regressions, "\n  "))
	}
	fmt.Fprintf(out, "all %d benchmarks within %.0f%% ns/op tolerance\n", len(fresh), 100*tolerance)
	return nil
}
