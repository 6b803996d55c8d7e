// Command bench is the repository's benchmark: seven workloads against
// the real binaries (rdtserved and rdtexperiments, built before the
// clock starts and run as child processes over loopback), the
// end-to-end metrics a user of the system would see, and — in a
// separate traced run — the per-layer metrics of an in-process ladder
// replay. See README.md; BENCHMARK.json at the repository root is the
// contract the driver holds it to.
//
//	bash bench/run.sh                                  every workload, every end-to-end metric
//	bash bench/run.sh -trace 1                         plus the per-layer metrics and the span files
//	bash bench/run.sh -selfcheck                       two sets, compared against the bounds
//	bash bench/run.sh -workload mem-rotate -seed 7 -seconds 8 -trace 0
//
// With -workload the last line of standard output is one JSON object:
// correct, attempted, failed and the metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a driver run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// endToEnd keeps the end-to-end half when Metrics is the per-layer
	// one, for the reader of a full traced set.
	endToEnd map[string]metric
}

// endToEnd names the end-to-end metrics, in report order. Every
// workload reports every one of them; README.md says what each means
// on each workload.
var endToEnd = []struct{ name, unit string }{
	{"events_per_s", "1/s"},
	{"ack_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

func endToEndMetrics(o *outcome) map[string]metric {
	vals := map[string]float64{
		"events_per_s": o.eventsPerS,
		"ack_p50_ms":   o.ackP50,
		"peak_rss_mb":  o.peakMB,
		"setup_s":      median(o.setupS),
	}
	out := make(map[string]metric, len(endToEnd))
	for _, m := range endToEnd {
		out[m.name] = metric{vals[m.name], m.unit}
	}
	return out
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, out io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name      = fs.String("workload", "", "run this workload only and print one JSON result line (default: all, as a table)")
		seed      = fs.Int64("seed", 1, "input seed: session i is generated from seed*1000003+i")
		secs      = fs.Float64("seconds", nominalSeconds, "length of the measured phase; fixed-work workloads scale their work by seconds/8")
		trace     = fs.Int("trace", 0, "1: report the per-layer metrics (traced ladder replay and daemon scrape) instead of the end-to-end ones")
		selfcheck = fs.Bool("selfcheck", false, "run two full sets and fail if an end-to-end metric is worse in the second by more than its bound")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: usage: bench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-selfcheck]")
		return 2
	}
	e, err := newEnv(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	defer e.close()
	p := params{seed: *seed, seconds: *secs, setups: setups}

	switch {
	case *selfcheck:
		return selfCheck(ctx, e, p, out)
	case *name == "":
		return runAll(ctx, e, p, *trace == 1, out)
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	res, err := report(ctx, e, w, p, *trace == 1, ladderFull, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(out, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll is the command a person runs: every workload, every metric by
// name and unit, non-zero exit after printing them all if any verdict
// was wrong or any work failed. The numbers, with the host they were
// taken on, are also left in bench/out/results.json — the file a
// baseline under bench/results/ is a copy of.
func runAll(ctx context.Context, e *env, p params, traced bool, out io.Writer) int {
	ok := true
	all := struct {
		Host      map[string]any     `json:"host"`
		Seed      int64              `json:"seed"`
		Seconds   float64            `json:"seconds"`
		Workloads map[string]*result `json:"workloads"`
	}{Host: hostInfo(e.root), Seed: p.seed, Seconds: p.seconds, Workloads: make(map[string]*result)}
	for i := range workloads {
		res, err := report(ctx, e, &workloads[i], p, traced, ladderFull, out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		if traced { // a person wants both halves side by side
			for name, m := range res.endToEnd {
				res.Metrics[name] = m
			}
		}
		all.Workloads[workloads[i].name] = res
		ok = ok && res.Correct && res.Failed == 0
	}
	data, _ := json.MarshalIndent(all, "", "  ")
	path := filepath.Join(e.outDir, "results.json")
	if err := os.MkdirAll(e.outDir, 0o755); err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	fmt.Fprintln(out, "results written to", path)
	if !ok {
		fmt.Fprintln(out, "FAIL: a verdict was wrong or work failed")
		return 1
	}
	return 0
}

// hostInfo describes the machine and the code the numbers belong to.
func hostInfo(root string) map[string]any {
	first := func(path, prefix string) string {
		data, _ := os.ReadFile(path)
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
			}
		}
		return "unknown"
	}
	commit := "unknown"
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"cpu":        first("/proc/cpuinfo", "model name"),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"kernel":     first("/proc/sys/kernel/osrelease", ""),
		"commit":     commit,
	}
}

// report runs one workload, prints every metric by name with its unit,
// and returns the result. The traced run drives the workload too — the
// scraped counters come from it — and then replays the ladder.
func report(ctx context.Context, e *env, w *workload, p params, traced bool, sc ladderScale, out io.Writer) (*result, error) {
	o, err := runWorkload(ctx, e, w, p)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	golden, err := checkGolden(e, w, p, o)
	if err != nil {
		return nil, err
	}
	res := &result{
		Correct:   o.mismatches == 0 && golden == "" && !o.aborted,
		Attempted: max(o.attempted, 1),
		Failed:    o.failed,
		Metrics:   endToEndMetrics(o),
	}
	res.endToEnd = res.Metrics
	names := make([]string, 0, len(endToEnd))
	for _, m := range endToEnd {
		names = append(names, m.name)
	}
	if traced {
		lad, err := runLadder(e, w, p, sc, filepath.Join(e.outDir, "trace-"+w.name+".json"))
		if err != nil {
			return nil, fmt.Errorf("%s: ladder: %w", w.name, err)
		}
		res.Metrics = perLayerMetrics(w, o, lad)
		names = perLayerNames()
	}
	fmt.Fprintf(out, "== %s (seed %d, %gs): %d latency samples, %d attempted, %d failed, %d verdict mismatches\n",
		w.name, p.seed, p.seconds, o.samples, res.Attempted, res.Failed, o.mismatches)
	for _, n := range names {
		m, ok := res.Metrics[n]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", w.name, n)
		}
		fmt.Fprintf(out, "%-40s %16.6f %s\n", n, m.Value, m.Unit)
	}
	if o.digest != "" {
		fmt.Fprintf(out, "inputs: %s sha256 %s\n", goldenKey(w, o), o.digest)
	}
	if golden != "" {
		fmt.Fprintln(out, "golden:", golden)
	}
	for _, msg := range o.problems {
		fmt.Fprintln(out, "problem:", msg)
	}
	return res, nil
}

// selfCheck runs every workload twice and fails if the second set is
// worse than the first by more than the bound BENCHMARK.json fixes for
// a metric: the test the driver applies to a change, applied to no
// change. It compares single runs, so it is a quick check; spread.py is
// the instrument the bounds were set with.
func selfCheck(ctx context.Context, e *env, p params, out io.Writer) int {
	bounds, err := loadBounds(e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	sets := make([]map[string]*result, 2)
	for s := range sets {
		sets[s] = make(map[string]*result)
		for i := range workloads {
			res, err := report(ctx, e, &workloads[i], p, false, ladderFull, out)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 2
			}
			sets[s][workloads[i].name] = res
		}
	}
	ok := true
	fmt.Fprintf(out, "\n%-16s %-14s %14s %14s %8s %8s\n", "workload", "metric", "first", "second", "diff", "bound")
	for i := range workloads {
		a, b := sets[0][workloads[i].name], sets[1][workloads[i].name]
		ok = ok && a.Correct && b.Correct && a.Failed == 0 && b.Failed == 0
		for _, m := range endToEnd {
			x, y := a.Metrics[m.name].Value, b.Metrics[m.name].Value
			diff := 0.0
			if x != 0 {
				diff = (y - x) / x
			}
			worse := diff // how much the second set is worse than the first
			if bounds[m.name].better == "higher" {
				worse = -diff
			}
			verdict := ""
			if worse > bounds[m.name].bound {
				verdict, ok = "  WORSE THAN BOUND", false
			}
			fmt.Fprintf(out, "%-16s %-14s %14.4f %14.4f %+7.1f%% %7.1f%%%s\n",
				workloads[i].name, m.name, x, y, 100*diff, 100*bounds[m.name].bound, verdict)
		}
	}
	if !ok {
		fmt.Fprintln(out, "FAIL: the two sets disagree, or a run was incorrect")
		return 1
	}
	fmt.Fprintln(out, "ok: the two sets agree within every bound")
	return 0
}

type declared struct {
	bound  float64
	better string
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

func loadBounds(e *env) (map[string]declared, error) {
	bf, err := loadBenchmarkFile(e.root)
	if err != nil {
		return nil, err
	}
	out := make(map[string]declared)
	for _, m := range bf.EndToEnd {
		out[m.Name] = declared{bound: m.Bound, better: m.Better}
	}
	return out, nil
}

// checkGolden compares the digest of the generated inputs and reference
// verdicts with the one committed for seed 1. It returns a description
// of the difference, or "" when they agree or nothing is committed for
// these arguments.
func checkGolden(e *env, w *workload, p params, o *outcome) (string, error) {
	if o.digest == "" || p.seed != 1 {
		return "", nil
	}
	data, err := os.ReadFile(filepath.Join(e.root, "bench", "golden", "seed1.json"))
	if err != nil {
		return "", fmt.Errorf("golden digests: %w", err)
	}
	var golden map[string]string
	if err := json.Unmarshal(data, &golden); err != nil {
		return "", fmt.Errorf("golden digests: %w", err)
	}
	key := goldenKey(w, o)
	want, ok := golden[key]
	if !ok {
		return "", nil // a pool size nothing was committed for (a scaled run)
	}
	if want != o.digest {
		return fmt.Sprintf("%s: inputs and reference verdicts digest %s, committed %s", key, o.digest, want), nil
	}
	return "", nil
}

// goldenKey names a pool by what fixes it besides the seed: the workload
// and the pool's size and session length, which a scaled run changes.
func goldenKey(w *workload, o *outcome) string {
	return fmt.Sprintf("%s/%dx%d", w.name, len(o.pool), len(o.pool[0].events))
}

// selfCPU is this process's CPU time so far: the generator's cost.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
