// Command rdtload drives synthetic session traffic at a running
// rdtserved and reports sustained ingest throughput plus a batch
// latency histogram — the measurement tool behind the binary stream
// path's events/sec claims, and (with -digest) a parity check that the
// two ingest paths compute identical verdicts.
//
// Usage:
//
//	rdtserved -addr :8080 -stream-addr :8081 &
//	rdtload -mode stream -addr :8081 -http :8080 -sessions 8 -events 200000
//	rdtload -mode json   -http :8080 -sessions 8 -events 200000
//
// Both invocations generate the same seeded traffic, so their
// "verdict digest" lines must match: same events, same verdicts,
// whichever wire carried them.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/rdt-go/rdt/internal/service"
	"github.com/rdt-go/rdt/internal/stream"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rdtload:", err)
		os.Exit(1)
	}
}

type loadConfig struct {
	mode     string
	addr     string
	httpAddr string
	sessions int
	procs    int
	events   int
	batch    int
	shape    string
	seed     int64
	prefix   string
	seal     bool
	digest   bool
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rdtload", flag.ContinueOnError)
	cfg := loadConfig{}
	fs.StringVar(&cfg.mode, "mode", "stream", "ingest path to drive: stream or json")
	fs.StringVar(&cfg.addr, "addr", "", "rdtserved stream ingest address; a comma-separated list drives a sharded cluster, following MOVED redirects (mode stream)")
	fs.StringVar(&cfg.httpAddr, "http", "", "rdtserved HTTP API address, comma-separated for a cluster (mode json ingest; any mode: seal + verdict digests)")
	fs.IntVar(&cfg.sessions, "sessions", 4, "concurrent sessions to drive")
	fs.IntVar(&cfg.procs, "procs", 8, "processes per session")
	fs.IntVar(&cfg.events, "events", 100000, "events per session")
	fs.IntVar(&cfg.batch, "batch", 256, "events per batch")
	fs.StringVar(&cfg.shape, "shape", "random", fmt.Sprintf("traffic shape: %s", strings.Join(stream.TrafficShapes, ", ")))
	fs.Int64Var(&cfg.seed, "seed", 1, "traffic seed (session i uses seed+i)")
	fs.StringVar(&cfg.prefix, "prefix", "load-", "session id prefix")
	fs.BoolVar(&cfg.seal, "seal", true, "seal sessions when done (deterministic final verdicts)")
	fs.BoolVar(&cfg.digest, "digest", true, "fetch verdicts over HTTP and print a parity digest (needs -http)")
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	switch cfg.mode {
	case "stream":
		if cfg.addr == "" {
			return fmt.Errorf("mode stream needs -addr")
		}
	case "json":
		if cfg.httpAddr == "" {
			return fmt.Errorf("mode json needs -http")
		}
	default:
		return fmt.Errorf("unknown mode %q (stream or json)", cfg.mode)
	}
	if cfg.sessions < 1 || cfg.batch < 1 || cfg.events < 1 {
		return fmt.Errorf("sessions, batch, and events must be positive")
	}
	if cfg.digest && cfg.httpAddr == "" {
		return fmt.Errorf("-digest needs -http")
	}

	fmt.Fprintf(out, "rdtload: mode=%s sessions=%d procs=%d batch=%d shape=%s events=%d\n",
		cfg.mode, cfg.sessions, cfg.procs, cfg.batch, cfg.shape, cfg.sessions*cfg.events)

	streamAddrs := splitList(cfg.addr)
	httpAddrs := splitList(cfg.httpAddr)
	var lat hist
	start := time.Now()
	var err error
	var perDaemon map[string]int
	var resumes int
	if cfg.mode == "stream" {
		perDaemon, resumes, err = driveStream(ctx, cfg, streamAddrs, &lat)
	} else {
		perDaemon, err = driveJSON(ctx, cfg, httpAddrs, &lat)
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	total := float64(cfg.sessions) * float64(cfg.events)
	rate := total / elapsed.Seconds()
	cores := runtime.GOMAXPROCS(0)
	fmt.Fprintf(out, "rdtload: throughput %.0f events/sec, %.0f events/sec/core (%d cores) over %s\n",
		rate, rate/float64(cores), cores, elapsed.Round(time.Millisecond))
	fmt.Fprintf(out, "rdtload: batch latency p50=%s p90=%s p99=%s p99.9=%s max=%s\n",
		lat.quantile(0.50).Round(time.Microsecond), lat.quantile(0.90).Round(time.Microsecond),
		lat.quantile(0.99).Round(time.Microsecond), lat.quantile(0.999).Round(time.Microsecond),
		lat.max.Round(time.Microsecond))
	if cfg.mode == "stream" {
		fmt.Fprintf(out, "rdtload: resumes %d\n", resumes)
	}
	if len(perDaemon) > 1 {
		addrs := make([]string, 0, len(perDaemon))
		for a := range perDaemon {
			addrs = append(addrs, a)
		}
		sort.Strings(addrs)
		for _, a := range addrs {
			fmt.Fprintf(out, "rdtload: daemon %s: %d events, %.0f events/sec\n",
				a, perDaemon[a], float64(perDaemon[a])/elapsed.Seconds())
		}
	}

	if cfg.digest {
		sum, err := verdictDigest(ctx, cfg, httpAddrs[0])
		if err != nil {
			return fmt.Errorf("verdict digest: %w", err)
		}
		fmt.Fprintf(out, "rdtload: verdict digest %x\n", sum)
	}
	return nil
}

// splitList splits a comma-separated endpoint list.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// driveJSON pushes the same traffic through the HTTP/JSON API, one
// goroutine per session, with 429 backoff. Sessions spread round-robin
// over the entry endpoints; in a sharded cluster any member (or the
// router) works as an entry point, since non-owners answer 307 and the
// client follows it with the body intact.
func driveJSON(ctx context.Context, cfg loadConfig, bases []string, lat *hist) (map[string]int, error) {
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: cfg.sessions + 4}}
	var mu sync.Mutex // guards lat and perDaemon
	perDaemon := make(map[string]int)
	var wg sync.WaitGroup
	errs := make(chan error, cfg.sessions)
	for s := 0; s < cfg.sessions; s++ {
		s := s
		base := httpBase(bases[s%len(bases)])
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local hist
			err := driveJSONSession(ctx, cfg, hc, base, s, &local)
			mu.Lock()
			lat.merge(&local)
			if err == nil {
				perDaemon[base] += cfg.events
			}
			mu.Unlock()
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return perDaemon, nil
}

// driveStream drives one daemon or a sharded cluster over the binary
// wire, one channel per session: one pooled connection per daemon,
// opens entering at any endpoint and following MOVED to the owner, and
// — when a rebalance moves a session mid-stream or a connection fails —
// resume-and-replay on the current owner, so a handoff costs a
// reconnect but never an event. It returns the events each daemon took
// and how many resumes that took.
func driveStream(ctx context.Context, cfg loadConfig, addrs []string, lat *hist) (map[string]int, int, error) {
	var mu sync.Mutex // guards lat, perDaemon and resumes: ack observers run per-connection
	perDaemon := make(map[string]int)
	resumes := 0
	pool := stream.NewPool(addrs, stream.WithAckObserver(func(events int, rtt time.Duration) {
		mu.Lock()
		lat.record(rtt)
		mu.Unlock()
	}))
	defer pool.Close() //nolint:errcheck

	count := func(addr string, events, resumed int) {
		mu.Lock()
		perDaemon[addr] += events
		resumes += resumed
		mu.Unlock()
	}
	var wg sync.WaitGroup
	errs := make(chan error, cfg.sessions)
	for s := 0; s < cfg.sessions; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- driveStreamSession(ctx, cfg, pool, s, count)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	return perDaemon, resumes, nil
}

func driveStreamSession(ctx context.Context, cfg loadConfig, pool *stream.Pool, s int, count func(addr string, events, resumed int)) error {
	id := fmt.Sprintf("%s%d", cfg.prefix, s)
	ch, addr, err := pool.Open(id, cfg.procs, "rdtload")
	if err != nil {
		return fmt.Errorf("session %s: open: %w", id, err)
	}
	tr, err := stream.NewTraffic(cfg.shape, cfg.procs, cfg.seed+int64(s))
	if err != nil {
		return err
	}
	// resume re-opens the failed channel on the current owner, which
	// replays the frames it left unacked.
	resume := func(what string) error {
		var rerr error
		for attempt := 0; attempt < 10; attempt++ {
			var fresh *stream.Chan
			var faddr string
			if fresh, faddr, rerr = pool.Resume(ch); rerr == nil {
				ch, addr = fresh, faddr
				count(addr, 0, 1)
				return nil
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			// Mid-handoff the session's covering copy may still be in
			// flight between members; give it a beat and re-resolve.
			time.Sleep(50 * time.Millisecond)
		}
		return fmt.Errorf("session %s: %s: resume: %w", id, what, rerr)
	}
	// retry runs op on the current channel until it succeeds, resuming
	// after each failure. A frame the failed channel recorded in its
	// unacked set was replayed by the resume, so it is not sent again;
	// one that died before being recorded is, and a Flush, which records
	// nothing, always runs again.
	retry := func(what string, op func(*stream.Chan) error) error {
		for {
			pre := ch.NextSeq()
			err := op(ch)
			if err == nil {
				return nil
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			recorded := ch.NextSeq() > pre
			if err := resume(what); err != nil {
				return err
			}
			if recorded {
				return nil
			}
		}
	}
	for sent := 0; sent < cfg.events; {
		n := min(cfg.batch, cfg.events-sent)
		batch := tr.Next(nil, n) // the channel keeps it until acked
		if err := retry("send", func(ch *stream.Chan) error { return ch.Send(batch) }); err != nil {
			return err
		}
		count(addr, n, 0)
		sent += n
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	if cfg.seal {
		if err := retry("seal", (*stream.Chan).Seal); err != nil {
			return err
		}
	}
	return retry("flush", func(ch *stream.Chan) error { return ch.Flush(ctx) })
}

func driveJSONSession(ctx context.Context, cfg loadConfig, hc *http.Client, base string, s int, lat *hist) error {
	id := fmt.Sprintf("%s%d", cfg.prefix, s)
	body, _ := json.Marshal(map[string]any{"id": id, "n": cfg.procs})
	resp, err := hc.Post(base+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("session %s: create: %w", id, err)
	}
	drainBody(resp)
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusConflict {
		return fmt.Errorf("session %s: create: status %d", id, resp.StatusCode)
	}

	tr, err := stream.NewTraffic(cfg.shape, cfg.procs, cfg.seed+int64(s))
	if err != nil {
		return err
	}
	url := base + "/v1/sessions/" + id + "/events"
	var batch []service.Event
	for sent := 0; sent < cfg.events; {
		n := min(cfg.batch, cfg.events-sent)
		batch = tr.Next(batch[:0], n)
		payload, err := json.Marshal(batch)
		if err != nil {
			return err
		}
		backoff := 2 * time.Millisecond
		for {
			start := time.Now()
			resp, err := hc.Post(url, "application/json", bytes.NewReader(payload))
			if err != nil {
				return fmt.Errorf("session %s: ingest: %w", id, err)
			}
			drainBody(resp)
			if resp.StatusCode == http.StatusAccepted {
				lat.record(time.Since(start))
				break
			}
			if resp.StatusCode != http.StatusTooManyRequests {
				return fmt.Errorf("session %s: ingest: status %d", id, resp.StatusCode)
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(backoff):
			}
			if backoff < 50*time.Millisecond {
				backoff *= 2
			}
		}
		sent += n
	}
	if cfg.seal {
		resp, err := hc.Post(base+"/v1/sessions/"+id+"/seal", "application/json", nil)
		if err != nil {
			return fmt.Errorf("session %s: seal: %w", id, err)
		}
		drainBody(resp)
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("session %s: seal: status %d", id, resp.StatusCode)
		}
	} else {
		// A flushing verdict is the JSON path's apply barrier, matching
		// the stream path's Flush.
		resp, err := hc.Get(base + "/v1/sessions/" + id + "/verdict?flush=1")
		if err != nil {
			return fmt.Errorf("session %s: flush: %w", id, err)
		}
		drainBody(resp)
	}
	return nil
}

// verdictDigest hashes every driven session's flushed verdict —
// normalized: the session id is stripped, keys are sorted — in session
// order. Two rdtload runs with the same traffic parameters must print
// the same digest whichever ingest path they used.
func verdictDigest(ctx context.Context, cfg loadConfig, httpAddr string) ([]byte, error) {
	base := httpBase(httpAddr)
	h := sha256.New()
	for s := 0; s < cfg.sessions; s++ {
		id := fmt.Sprintf("%s%d", cfg.prefix, s)
		req, err := http.NewRequestWithContext(ctx, "GET", base+"/v1/sessions/"+id+"/verdict?flush=1", nil)
		if err != nil {
			return nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, err
		}
		data, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("session %s: verdict: status %d (%s)", id, resp.StatusCode, data)
		}
		var v map[string]any
		if err := json.Unmarshal(data, &v); err != nil {
			return nil, fmt.Errorf("session %s: verdict: %w", id, err)
		}
		delete(v, "session")          // ids differ across runs by design
		canon, err := json.Marshal(v) // map marshaling sorts keys
		if err != nil {
			return nil, err
		}
		h.Write(canon)
		h.Write([]byte{'\n'})
	}
	return h.Sum(nil), nil
}

func httpBase(addr string) string {
	if strings.HasPrefix(addr, "http://") || strings.HasPrefix(addr, "https://") {
		return strings.TrimSuffix(addr, "/")
	}
	return "http://" + addr
}

func drainBody(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
}
