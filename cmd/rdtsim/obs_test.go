package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/rdt-go/rdt/internal/trace"
)

// httpGet fetches a URL and returns the body, failing the test on error.
func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return string(body)
}

// promValues parses a Prometheus text exposition into series -> value,
// keeping only integral-valued samples (counters and gauges).
func promValues(body string) map[string]int {
	out := make(map[string]int)
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.Atoi(line[i+1:])
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// TestRunSimMetricsMatchReport is the acceptance check of the
// observability surface: a comparison run serving /metrics must report
// exactly the same per-protocol message, basic-, and forced-checkpoint
// counts as the printed table, and the per-predicate forced-checkpoint
// attribution must sum to the forced total.
func TestRunSimMetricsMatchReport(t *testing.T) {
	var metricsBody, eventsBody string
	oldHook := metricsServed
	metricsServed = func(addr string) {
		metricsBody = httpGet(t, "http://"+addr+"/metrics")
		eventsBody = httpGet(t, "http://"+addr+"/debug/events")
	}
	defer func() { metricsServed = oldHook }()

	var out bytes.Buffer
	err := run([]string{
		"-protocol", "all", "-metrics-addr", "127.0.0.1:0",
		"-workload", "ring", "-n", "4", "-duration", "40",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if metricsBody == "" {
		t.Fatal("metricsServed hook never ran")
	}
	if !strings.Contains(out.String(), "metrics: http://") {
		t.Errorf("serving address not announced:\n%s", out.String())
	}

	series := promValues(metricsBody)

	// Parse the comparison table: protocol, messages, basic, forced, ...
	type row struct{ messages, basic, forced int }
	reported := make(map[string]row)
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) != 7 || f[0] == "protocol" || strings.ContainsRune(f[0], '=') {
			continue
		}
		var r row
		var err error
		if r.messages, err = strconv.Atoi(f[1]); err != nil {
			continue
		}
		if r.basic, err = strconv.Atoi(f[2]); err != nil {
			continue
		}
		if r.forced, err = strconv.Atoi(f[3]); err != nil {
			continue
		}
		reported[f[0]] = r
	}
	if len(reported) < 5 {
		t.Fatalf("parsed only %d table rows:\n%s", len(reported), out.String())
	}

	for proto, r := range reported {
		get := func(series map[string]int, key string) int {
			v, ok := series[key]
			if !ok {
				t.Errorf("metrics missing series %s", key)
			}
			return v
		}
		if got := get(series, fmt.Sprintf(`rdt_sim_messages_total{protocol=%q}`, proto)); got != r.messages {
			t.Errorf("%s: metrics report %d messages, table %d", proto, got, r.messages)
		}
		if got := get(series, fmt.Sprintf(`rdt_checkpoints_total{kind="basic",protocol=%q}`, proto)); got != r.basic {
			t.Errorf("%s: metrics report %d basic, table %d", proto, got, r.basic)
		}
		if got := get(series, fmt.Sprintf(`rdt_checkpoints_total{kind="forced",protocol=%q}`, proto)); got != r.forced {
			t.Errorf("%s: metrics report %d forced, table %d", proto, got, r.forced)
		}

		// Predicate attribution must be complete: the per-predicate
		// series of a protocol sum to its forced total.
		attributed := 0
		for key, v := range series {
			if strings.HasPrefix(key, "rdt_forced_checkpoints_total{") &&
				strings.Contains(key, fmt.Sprintf("protocol=%q", proto)) {
				attributed += v
			}
		}
		if attributed != r.forced {
			t.Errorf("%s: predicate attribution sums to %d, forced total is %d", proto, attributed, r.forced)
		}
	}

	if !strings.Contains(eventsBody, `"seq"`) {
		t.Errorf("/debug/events returned no events: %s", eventsBody)
	}
}

// TestRunSimSingleMetricsMatchReport checks the single-run path: the
// served checkpoint counters equal the printed report's.
func TestRunSimSingleMetricsMatchReport(t *testing.T) {
	var metricsBody string
	oldHook := metricsServed
	metricsServed = func(addr string) { metricsBody = httpGet(t, "http://"+addr+"/metrics") }
	defer func() { metricsServed = oldHook }()

	var out bytes.Buffer
	err := run([]string{
		"-protocol", "bhmr", "-metrics-addr", "127.0.0.1:0",
		"-workload", "ring", "-n", "4", "-duration", "60",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var basic, forced int
	for _, line := range strings.Split(out.String(), "\n") {
		fmt.Sscanf(line, "basic checkpoints %d", &basic)
		fmt.Sscanf(line, "forced checkpoints %d", &forced)
	}
	if basic == 0 || forced == 0 {
		t.Fatalf("report parse failed (basic=%d forced=%d):\n%s", basic, forced, out.String())
	}
	series := promValues(metricsBody)
	if got := series[`rdt_checkpoints_total{kind="basic",protocol="bhmr"}`]; got != basic {
		t.Errorf("metrics basic = %d, report %d", got, basic)
	}
	if got := series[`rdt_checkpoints_total{kind="forced",protocol="bhmr"}`]; got != forced {
		t.Errorf("metrics forced = %d, report %d", got, forced)
	}
}

// TestRunSimEvents checks the -events tail printing without a server.
func TestRunSimEvents(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-protocol", "bhmr", "-events", "5",
		"-workload", "ring", "-n", "4", "-duration", "60",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	text := out.String()
	if !strings.Contains(text, "events (last 5 of ") {
		t.Errorf("missing event tail header:\n%s", text)
	}
	if !strings.Contains(text, "proc=") {
		t.Errorf("missing event lines:\n%s", text)
	}
}

// TestRunClusterModesTraceAndMetrics: every cluster mode serves
// /metrics, prints the event tail, and writes the final incarnation's
// pattern with -trace and its timeline with -trace-out.
func TestRunClusterModesTraceAndMetrics(t *testing.T) {
	ring := writeScenario(t, "scenario obs-ring\nprocs 3\nat 0ms traffic ring rounds=2\nat 20ms settle\n")
	modes := []struct {
		name   string
		args   []string
		series string
	}{
		{"scenario", []string{"-scenario", ring}, "rdt_cluster_deliveries_total"},
		{"faults", []string{"-n", "3", "-rounds", "4", "-faults", "drop=0.2,dup=0.2"}, "rdt_faults_injected_total"},
		{"supervise", []string{"-n", "3", "-rounds", "4", "-supervise"}, `rdt_supervisor_recoveries_total{outcome="ok"}`},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			var metricsBody string
			oldHook := metricsServed
			metricsServed = func(addr string) { metricsBody = httpGet(t, "http://"+addr+"/metrics") }
			defer func() { metricsServed = oldHook }()

			dir := t.TempDir()
			tracePath, timelinePath := filepath.Join(dir, "trace.json"), filepath.Join(dir, "timeline.json")
			var out bytes.Buffer
			args := append([]string{"-metrics-addr", "127.0.0.1:0", "-events", "3",
				"-trace", tracePath, "-trace-out", timelinePath}, m.args...)
			if err := run(args, &out); err != nil {
				t.Fatalf("run: %v\n%s", err, out.String())
			}
			if !strings.Contains(metricsBody, m.series) {
				t.Errorf("/metrics missing %s:\n%s", m.series, metricsBody)
			}
			for _, want := range []string{"events (last 3 of ", "trace written", "timeline written"} {
				if !strings.Contains(out.String(), want) {
					t.Errorf("output missing %q:\n%s", want, out.String())
				}
			}
			p, err := trace.LoadFile(tracePath)
			if err != nil {
				t.Fatalf("trace unreadable: %v", err)
			}
			if p.N != 3 {
				t.Errorf("trace holds n=%d, want 3", p.N)
			}
			if data, err := os.ReadFile(timelinePath); err != nil || !bytes.Contains(data, []byte(`"traceEvents"`)) {
				t.Errorf("timeline not written: %v", err)
			}
		})
	}
}
