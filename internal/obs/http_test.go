package obs

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestPrometheusGolden locks the exposition format down against the
// Prometheus text format (0.0.4): TYPE lines, label rendering,
// cumulative histogram buckets with le labels, _sum and _count.
func TestPrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("rdt_checkpoints_total", "protocol", "bhmr", "kind", "forced").Add(3)
	reg.Counter("rdt_checkpoints_total", "protocol", "bhmr", "kind", "basic").Add(5)
	reg.Gauge("rdt_queue_depth", "proc", "0").Set(2)
	h := reg.Histogram("rdt_hop_seconds", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.002)
	h.Observe(5)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	golden := `# TYPE rdt_checkpoints_total counter
rdt_checkpoints_total{kind="basic",protocol="bhmr"} 5
rdt_checkpoints_total{kind="forced",protocol="bhmr"} 3
# TYPE rdt_hop_seconds histogram
rdt_hop_seconds_bucket{le="0.001"} 1
rdt_hop_seconds_bucket{le="0.01"} 2
rdt_hop_seconds_bucket{le="+Inf"} 3
rdt_hop_seconds_sum 5.0025
rdt_hop_seconds_count 3
# TYPE rdt_queue_depth gauge
rdt_queue_depth{proc="0"} 2
`
	if b.String() != golden {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", b.String(), golden)
	}
}

// TestPrometheusPrefixNames guards the family grouping: a labeled
// metric whose name is a strict prefix of another ("foo" vs "foo_bar")
// must still render as one contiguous run with a single # TYPE line.
// Sorting snapshots by series key would split it, because '{' sorts
// after '_'.
func TestPrometheusPrefixNames(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("foo", "a", "1").Inc()
	reg.Counter("foo_bar").Inc()
	reg.Counter("foo", "a", "2").Inc()

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	golden := `# TYPE foo counter
foo{a="1"} 1
foo{a="2"} 1
# TYPE foo_bar counter
foo_bar 1
`
	if b.String() != golden {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", b.String(), golden)
	}
	if got := strings.Count(b.String(), "# TYPE foo counter"); got != 1 {
		t.Errorf("# TYPE foo emitted %d times, want 1", got)
	}
}

// TestServeEndpoints starts a real server on an ephemeral port and
// scrapes /metrics, /debug/events, and /debug/vars.
func TestServeEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("up_total").Inc()
	tr := NewTracer(16)
	tr.Record(Event{Type: EventForcedCheckpoint, Proc: 3, Predicate: "C2"})
	tr.Record(Event{Type: EventRollback, Proc: 1, Value: 2})

	srv, err := Serve(":0", reg, tr, false)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close() //nolint:errcheck // test cleanup

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close() //nolint:errcheck // test cleanup
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body)
	}

	if metrics := get("/metrics"); !strings.Contains(metrics, "up_total 1") {
		t.Errorf("/metrics missing counter:\n%s", metrics)
	}

	var events struct {
		Seq    uint64  `json:"seq"`
		Events []Event `json:"events"`
	}
	if err := json.Unmarshal([]byte(get("/debug/events")), &events); err != nil {
		t.Fatalf("/debug/events not JSON: %v", err)
	}
	if events.Seq != 2 || len(events.Events) != 2 {
		t.Fatalf("/debug/events = seq %d, %d events", events.Seq, len(events.Events))
	}
	if events.Events[0].Predicate != "C2" || events.Events[1].Type != EventRollback {
		t.Errorf("events content wrong: %+v", events.Events)
	}

	var events1 struct {
		Events []Event `json:"events"`
	}
	if err := json.Unmarshal([]byte(get("/debug/events?n=1")), &events1); err != nil {
		t.Fatal(err)
	}
	if len(events1.Events) != 1 || events1.Events[0].Seq != 2 {
		t.Errorf("?n=1 returned %+v", events1.Events)
	}

	if vars := get("/debug/vars"); !strings.Contains(vars, "memstats") {
		t.Error("/debug/vars missing expvar content")
	}

	// A bad ?n= is rejected.
	resp, err := http.Get("http://" + srv.Addr() + "/debug/events?n=zzz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //nolint:errcheck // test cleanup
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad n: status %d, want 400", resp.StatusCode)
	}
}

// TestEventJSONTypes checks the event type marshals as its name.
func TestEventJSONTypes(t *testing.T) {
	data, err := json.Marshal(Event{Seq: 1, Type: EventSend, Proc: 2, Peer: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"type":"send"`) {
		t.Errorf("event JSON = %s", data)
	}
}

// TestServerShutdown drains the server: the listener closes, requests
// already accepted complete, and a second Shutdown is harmless.
func TestServerShutdown(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("up_total").Inc()
	srv, err := Serve(":0", reg, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("GET before shutdown: %v", err)
	}
	resp.Body.Close() //nolint:errcheck // test cleanup

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("listener still accepting after Shutdown")
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}
