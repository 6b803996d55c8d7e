package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/rgraph"
	"github.com/rdt-go/rdt/internal/service"
)

// startDaemon runs the daemon with an ephemeral port and returns its
// base URL, a cancel function standing in for SIGTERM, and a waiter for
// the exit error.
func startDaemon(t *testing.T, args ...string) (string, context.CancelFunc, func() error) {
	t.Helper()
	addrCh := make(chan string, 1)
	prev := serving
	serving = func(a string) { addrCh <- a }
	t.Cleanup(func() { serving = prev })

	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	errCh := make(chan error, 1)
	go func() { errCh <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), io.Discard) }()

	select {
	case addr := <-addrCh:
		return "http://" + addr, cancel, func() error { return <-errCh }
	case err := <-errCh:
		t.Fatalf("daemon exited before binding: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not bind in time")
	}
	panic("unreachable")
}

func postJSON(base, path string, body any, out any) (int, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("decode %q: %w", data, err)
		}
	}
	if resp.StatusCode >= 300 {
		return resp.StatusCode, fmt.Errorf("status %d: %s", resp.StatusCode, data)
	}
	return resp.StatusCode, nil
}

func getJSON(base, path string, out any) error {
	resp, err := http.Get(base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, data)
	}
	return json.Unmarshal(data, out)
}

// driveSession streams a deterministic pseudo-random run into one
// session — mirroring every event into a local Builder — then checks
// the flushed verdict and the sealed verdict against the batch checker
// on the mirrored pattern.
func driveSession(base, id string, n int, seed int64, steps int) error {
	if _, err := postJSON(base, "/v1/sessions", map[string]any{"id": id, "n": n}, nil); err != nil {
		return fmt.Errorf("create: %w", err)
	}
	rng := rand.New(rand.NewSource(seed))
	mirror := model.NewBuilder(n)
	handles := map[int]int{}
	nextMsg := 0
	var inFlight []int
	var pending []service.Event

	ship := func() error {
		if len(pending) == 0 {
			return nil
		}
		for {
			code, err := postJSON(base, "/v1/sessions/"+id+"/events", pending, nil)
			if code == http.StatusTooManyRequests {
				time.Sleep(5 * time.Millisecond) // honor the backpressure
				continue
			}
			if err != nil {
				return fmt.Errorf("ingest: %w", err)
			}
			pending = nil
			return nil
		}
	}

	for s := 0; s < steps; s++ {
		switch k := rng.Intn(10); {
		case k < 4:
			proc := rng.Intn(n)
			pending = append(pending, service.Event{Op: service.OpCheckpoint, Proc: proc})
			mirror.Checkpoint(model.ProcID(proc), model.KindBasic, nil)
		case k < 8 || len(inFlight) == 0:
			from := rng.Intn(n)
			to := rng.Intn(n - 1)
			if to >= from {
				to++
			}
			msg := nextMsg
			nextMsg++
			pending = append(pending, service.Event{Op: service.OpSend, Proc: from, Peer: to, Msg: msg})
			handles[msg] = mirror.Send(model.ProcID(from), model.ProcID(to))
			inFlight = append(inFlight, msg)
		default:
			i := rng.Intn(len(inFlight))
			msg := inFlight[i]
			inFlight = append(inFlight[:i], inFlight[i+1:]...)
			pending = append(pending, service.Event{Op: service.OpDeliver, Msg: msg})
			if err := mirror.Deliver(handles[msg]); err != nil {
				return fmt.Errorf("mirror deliver: %w", err)
			}
		}
		if len(pending) >= 1+rng.Intn(8) {
			if err := ship(); err != nil {
				return err
			}
		}
	}
	if err := ship(); err != nil {
		return err
	}

	p, _, err := mirror.Snapshot()
	if err != nil {
		return fmt.Errorf("mirror snapshot: %w", err)
	}
	rep, err := rgraph.CheckRDT(p, service.DefaultMaxViolations)
	if err != nil {
		return fmt.Errorf("batch check: %w", err)
	}

	var v service.Verdict
	if err := getJSON(base, "/v1/sessions/"+id+"/verdict?flush=1", &v); err != nil {
		return fmt.Errorf("verdict: %w", err)
	}
	if err := matchVerdict(&v, rep); err != nil {
		return fmt.Errorf("live verdict: %w", err)
	}
	var sealed service.Verdict
	if _, err := postJSON(base, "/v1/sessions/"+id+"/seal", nil, &sealed); err != nil {
		return fmt.Errorf("seal: %w", err)
	}
	if err := matchVerdict(&sealed, rep); err != nil {
		return fmt.Errorf("sealed verdict: %w", err)
	}
	return nil
}

func matchVerdict(v *service.Verdict, rep *rgraph.Report) error {
	if v.RDT != rep.RDT || v.RPathPairs != rep.RPathPairs || v.TrackablePairs != rep.TrackablePairs {
		return fmt.Errorf("verdict (rdt=%v pairs=%d/%d) != batch (rdt=%v pairs=%d/%d)",
			v.RDT, v.TrackablePairs, v.RPathPairs, rep.RDT, rep.TrackablePairs, rep.RPathPairs)
	}
	if len(rep.Violations) > 0 {
		if v.FirstViolation == nil {
			return fmt.Errorf("batch reports %v first, verdict reports none", rep.Violations[0])
		}
		want := rep.Violations[0]
		got := *v.FirstViolation
		if got.From.Proc != int(want.From.Proc) || got.From.Index != want.From.Index ||
			got.To.Proc != int(want.To.Proc) || got.To.Index != want.To.Index {
			return fmt.Errorf("first violation %+v, batch says %v", got, want)
		}
	}
	return nil
}

// TestServeSmoke drives one session end-to-end through a real daemon:
// create, ingest, verdict, recovery line, trace dump, seal, and a clean
// SIGTERM-style drain.
func TestServeSmoke(t *testing.T) {
	base, cancel, wait := startDaemon(t)

	if err := driveSession(base, "smoke", 3, 0x5eed, 120); err != nil {
		t.Fatal(err)
	}
	var line struct {
		Line   []int `json:"line"`
		Bounds []int `json:"bounds"`
	}
	if err := getJSON(base, "/v1/sessions/smoke/line", &line); err != nil {
		t.Fatalf("line: %v", err)
	}
	if len(line.Line) != 3 || len(line.Bounds) != 3 {
		t.Fatalf("line response %+v", line)
	}
	for i := range line.Line {
		if line.Line[i] > line.Bounds[i] {
			t.Fatalf("line %v above bounds %v", line.Line, line.Bounds)
		}
	}
	resp, err := http.Get(base + "/v1/sessions/smoke/trace")
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(data, []byte(`"checkpoints"`)) {
		t.Fatalf("trace: %d (%.80s)", resp.StatusCode, data)
	}

	cancel()
	if err := wait(); err != nil {
		t.Fatalf("daemon exit: %v", err)
	}
}

// TestServeSmokeConcurrent runs many sessions ingesting in parallel —
// the CI serve-smoke job executes this under -race, so shard locking,
// queue handoff, and metrics all get exercised concurrently.
func TestServeSmokeConcurrent(t *testing.T) {
	const sessions = 20
	base, cancel, wait := startDaemon(t)

	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := driveSession(base, fmt.Sprintf("w%d", i), 2+i%4, int64(i)*7919, 150); err != nil {
				errs <- fmt.Errorf("session %d: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	var health struct {
		Status   string `json:"status"`
		Sessions int    `json:"sessions"`
	}
	if err := getJSON(base, "/healthz", &health); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if health.Sessions != sessions {
		t.Fatalf("healthz reports %d sessions, want %d", health.Sessions, sessions)
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(data, []byte("rdt_service_events_ingested_total")) {
		t.Fatalf("metrics output lacks service counters: %.120s", data)
	}

	cancel()
	if err := wait(); err != nil {
		t.Fatalf("daemon exit: %v", err)
	}
}

// syncBuffer lets the test goroutine read daemon output written from
// the run goroutine without a data race.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestServeProfilingListener boots the daemon with -pprof-addr and
// checks that the separate profiling listener serves the pprof index
// while the API listener does not expose it, and that the runtime
// gauges reach the API's /metrics.
func TestServeProfilingListener(t *testing.T) {
	addrCh := make(chan string, 1)
	prev := serving
	serving = func(a string) { addrCh <- a }
	t.Cleanup(func() { serving = prev })

	var out syncBuffer
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(ctx, []string{"-addr", "127.0.0.1:0", "-pprof-addr", "127.0.0.1:0"}, &out)
	}()

	var apiAddr string
	select {
	case apiAddr = <-addrCh:
	case err := <-errCh:
		t.Fatalf("daemon exited before binding: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not bind in time")
	}

	// Both startup lines are printed before the serving seam fires.
	m := regexp.MustCompile(`profiling on (http://[^/\s]+)/debug/pprof/`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no profiling line in output:\n%s", out.String())
	}
	resp, err := http.Get(m[1] + "/debug/pprof/")
	if err != nil {
		t.Fatalf("pprof index: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %d", resp.StatusCode)
	}
	resp, err = http.Get("http://" + apiAddr + "/debug/pprof/")
	if err != nil {
		t.Fatalf("api pprof probe: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("API listener exposes /debug/pprof/; profiling should stay on its own address")
	}
	// The runtime gauges land in the daemon's registry, so the API's
	// /metrics carries them; they are sampled before the listener starts.
	resp, err = http.Get("http://" + apiAddr + "/metrics")
	if err != nil {
		t.Fatalf("api metrics: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("api metrics: %v", err)
	}
	if !strings.Contains(string(body), "rdt_go_goroutines ") {
		t.Errorf("API /metrics has no rdt_go_goroutines gauge with -pprof-addr set:\n%s", body)
	}

	cancel()
	if err := <-errCh; err != nil {
		t.Fatalf("daemon exit: %v", err)
	}
}

// startDaemonOut is startDaemon with captured output, for tests that
// assert on the daemon's log lines.
func startDaemonOut(t *testing.T, out io.Writer, args ...string) (string, context.CancelFunc, func() error) {
	t.Helper()
	addrCh := make(chan string, 1)
	prev := serving
	serving = func(a string) { addrCh <- a }
	t.Cleanup(func() { serving = prev })

	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	errCh := make(chan error, 1)
	go func() { errCh <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), out) }()

	select {
	case addr := <-addrCh:
		return "http://" + addr, cancel, func() error { return <-errCh }
	case err := <-errCh:
		t.Fatalf("daemon exited before binding: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not bind in time")
	}
	panic("unreachable")
}

// TestServeDurableRestart is the daemon-level drain/restart cycle: a
// SIGTERM-style drain passivates every session, the restarted daemon
// logs a recovery that replayed every WAL record, and it answers
// identical verdicts — sealed sessions stay sealed, open sessions keep
// ingesting.
func TestServeDurableRestart(t *testing.T) {
	dir := t.TempDir()
	base, cancel, wait := startDaemon(t, "-data-dir", dir)

	// One sealed session (driveSession seals at the end)...
	if err := driveSession(base, "sealed", 3, 0xd00d, 90); err != nil {
		t.Fatal(err)
	}
	// ...and one left open mid-run.
	if _, err := postJSON(base, "/v1/sessions", map[string]any{"id": "open", "n": 2}, nil); err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := postJSON(base, "/v1/sessions/open/events", []service.Event{
		{Op: service.OpSend, Proc: 0, Peer: 1, Msg: 0},
		{Op: service.OpDeliver, Msg: 0},
		{Op: service.OpCheckpoint, Proc: 1},
	}, nil); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	var sealedBefore, openBefore service.Verdict
	if err := getJSON(base, "/v1/sessions/sealed/verdict?flush=1", &sealedBefore); err != nil {
		t.Fatalf("verdict: %v", err)
	}
	if err := getJSON(base, "/v1/sessions/open/verdict?flush=1", &openBefore); err != nil {
		t.Fatalf("verdict: %v", err)
	}
	cancel()
	if err := wait(); err != nil {
		t.Fatalf("daemon exit: %v", err)
	}

	var out syncBuffer
	base2, cancel2, wait2 := startDaemonOut(t, &out, "-data-dir", dir)
	replayed := fmt.Sprintf(`recovered 2 sessions .* \([1-9][0-9]* records / %d events replayed`, sealedBefore.EventsApplied+openBefore.EventsApplied)
	if m := regexp.MustCompile(replayed).FindString(out.String()); m == "" {
		t.Fatalf("recovery line missing or not a full replay (want %q):\n%s", replayed, out.String())
	}
	var sealedAfter, openAfter service.Verdict
	if err := getJSON(base2, "/v1/sessions/sealed/verdict", &sealedAfter); err != nil {
		t.Fatalf("verdict after restart: %v", err)
	}
	if err := getJSON(base2, "/v1/sessions/open/verdict", &openAfter); err != nil {
		t.Fatalf("verdict after restart: %v", err)
	}
	sealedBefore.Session, sealedAfter.Session = "", ""
	openBefore.Session, openAfter.Session = "", ""
	for _, pair := range []struct {
		name          string
		before, after service.Verdict
	}{{"sealed", sealedBefore, sealedAfter}, {"open", openBefore, openAfter}} {
		b, _ := json.Marshal(pair.before)
		a, _ := json.Marshal(pair.after)
		if !bytes.Equal(a, b) {
			t.Errorf("%s verdict changed across restart:\n  before %s\n  after  %s", pair.name, b, a)
		}
	}
	if sealedAfter.State != "sealed" {
		t.Errorf("sealed session state %q after restart", sealedAfter.State)
	}
	// The open session keeps ingesting after the restart.
	if _, err := postJSON(base2, "/v1/sessions/open/events", []service.Event{
		{Op: service.OpCheckpoint, Proc: 0},
	}, nil); err != nil {
		t.Fatalf("ingest after restart: %v", err)
	}
	var openMore service.Verdict
	if err := getJSON(base2, "/v1/sessions/open/verdict?flush=1", &openMore); err != nil {
		t.Fatalf("verdict: %v", err)
	}
	if openMore.EventsApplied != openAfter.EventsApplied+1 {
		t.Fatalf("events applied %d, want %d", openMore.EventsApplied, openAfter.EventsApplied+1)
	}
	cancel2()
	if err := wait2(); err != nil {
		t.Fatalf("second daemon exit: %v", err)
	}
}

func TestServeVersionFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-version"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "rdtserved dev (unknown)") {
		t.Errorf("unexpected version output %q", out.String())
	}
}

// TestRunRejectsArgs covers flag handling without starting a listener.
func TestRunRejectsArgs(t *testing.T) {
	if err := run(context.Background(), []string{"extra"}, io.Discard); err == nil {
		t.Fatal("positional arguments accepted")
	}
	if err := run(context.Background(), []string{"-addr"}, io.Discard); err == nil {
		t.Fatal("dangling flag accepted")
	}
}
