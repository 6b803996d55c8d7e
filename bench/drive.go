package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/rdt-go/rdt/internal/stream"
)

// drivers is the number of load-generating goroutines and of
// connections to the daemon: one per core of the two-core box the
// benchmark is sized for, so the generator never outnumbers the cores.
const drivers = 2

// served is what the daemon answered for one finished session.
type served struct {
	pool int     // index of the replayed input
	n    int     // events of that input that were sent
	v    verdict // verdict and recovery line as served
}

// ackPoint is one acknowledged batch: when the ack came, how many
// events it covered and how long the batch had waited for it.
type ackPoint struct {
	at     time.Time
	events int
	lat    time.Duration // send (paced: due time) -> ack
}

// driveResult is what one driver measured. Drivers do not share state;
// results are merged after they have all stopped.
type driveResult struct {
	first, last time.Time // first send, last ack
	acks        []ackPoint
	late        []time.Duration // paced only: due time -> send
	attempted   int             // batches
	failed      int             // batches refused for good or errored
	overdue     int             // paced only: acks later than the latency limit
	retries     int             // 429 answers, which are not failures
	sessions    []served
	err         error // the first error that stopped the driver
}

func (r *driveResult) events() int {
	n := 0
	for _, a := range r.acks {
		n += a.events
	}
	return n
}

func merge(results []driveResult) driveResult {
	var m driveResult
	for _, r := range results {
		if m.first.IsZero() || (!r.first.IsZero() && r.first.Before(m.first)) {
			m.first = r.first
		}
		if r.last.After(m.last) {
			m.last = r.last
		}
		m.acks = append(m.acks, r.acks...)
		m.late = append(m.late, r.late...)
		m.attempted += r.attempted
		m.failed += r.failed
		m.overdue += r.overdue
		m.retries += r.retries
		m.sessions = append(m.sessions, r.sessions...)
		if m.err == nil {
			m.err = r.err
		}
	}
	return m
}

// load describes one ingest run against a daemon.
type load struct {
	d     *daemon
	pool  []*input
	batch int
	// until ends a rotating run: a driver starts no new session after it.
	until time.Time
	// once makes each driver replay its share of the pool a single time
	// instead of rotating until the deadline.
	once bool
	// serial keeps one batch of a session in flight instead of a credit
	// window of them, so an ack's latency is that batch's own service time.
	serial bool
	// keep leaves finished sessions in the daemon, unsealed; the default
	// is the full life cycle, ending with a delete.
	keep bool
	tag  string // session id prefix, unique per run
}

// sessionID names the k-th session of driver d.
func (l *load) sessionID(d, k int) string { return fmt.Sprintf("%s-%d-%d", l.tag, d, k) }

// next returns the pool index of driver d's k-th session, or -1 when
// the driver is done.
func (l *load) next(d, k int) int {
	i := d + k*drivers
	if l.once {
		if i >= len(l.pool) {
			return -1
		}
		return i
	}
	if !time.Now().Before(l.until) {
		return -1
	}
	return i % len(l.pool)
}

// fetchVerdict reads a session's verdict and recovery line the way a
// client would. flush makes the verdict wait for every accepted event.
func fetchVerdict(ctx context.Context, base, id string, flush bool) (verdict, error) {
	var v verdict
	url := base + "/v1/sessions/" + id
	q := ""
	if flush {
		q = "?flush=1"
	}
	resp, err := httpDo(ctx, http.MethodGet, url+"/verdict"+q, nil)
	if err != nil || resp.status != http.StatusOK {
		return v, fmt.Errorf("session %s: verdict: status %d, %v", id, resp.status, err)
	}
	var sv struct {
		EventsApplied  int64 `json:"events_applied"`
		Checkpoints    int   `json:"checkpoints"`
		RDT            bool  `json:"rdt"`
		RPathPairs     int   `json:"rpath_pairs"`
		TrackablePairs int   `json:"trackable_pairs"`
		Violations     []struct {
			String string `json:"string"`
		} `json:"violations"`
		FirstViolation *struct {
			String string `json:"string"`
		} `json:"first_violation"`
	}
	if err := json.Unmarshal(resp.body, &sv); err != nil {
		return v, fmt.Errorf("session %s: verdict: %w", id, err)
	}
	v = verdict{Events: sv.EventsApplied, Checkpoints: sv.Checkpoints, RDT: sv.RDT,
		RPathPairs: sv.RPathPairs, Trackable: sv.TrackablePairs}
	for _, viol := range sv.Violations {
		v.Violations = append(v.Violations, viol.String)
	}
	if sv.FirstViolation != nil {
		v.First = sv.FirstViolation.String
	}
	resp, err = httpDo(ctx, http.MethodGet, url+"/line", nil)
	if err != nil || resp.status != http.StatusOK {
		return v, fmt.Errorf("session %s: line: status %d, %v", id, resp.status, err)
	}
	var line struct {
		Line []int `json:"line"`
	}
	if err := json.Unmarshal(resp.body, &line); err != nil {
		return v, fmt.Errorf("session %s: line: %w", id, err)
	}
	v.Line = line.Line
	return v, nil
}

// finish ends a session's life cycle: verdict, recovery line and,
// unless the run keeps its sessions, delete.
func (l *load) finish(ctx context.Context, id string, flush bool) (verdict, error) {
	v, err := fetchVerdict(ctx, l.d.http, id, flush)
	if err != nil || l.keep {
		return v, err
	}
	resp, err := httpDo(ctx, http.MethodDelete, l.d.http+"/v1/sessions/"+id, nil)
	if err != nil || resp.status >= 300 {
		return v, fmt.Errorf("session %s: delete: status %d, %v", id, resp.status, err)
	}
	return v, nil
}

// runDrivers starts one goroutine per driver, waits for all of them and
// merges what they measured.
func runDrivers(fn func(d int, r *driveResult)) driveResult {
	results := make([]driveResult, drivers)
	var wg sync.WaitGroup
	for d := 0; d < drivers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			fn(d, &results[d])
		}(d)
	}
	wg.Wait()
	return merge(results)
}

// streamClosed drives RDTSTRM1 in a closed loop: each driver owns one
// connection and replays one session at a time, sending as fast as the
// credit window allows. An ack means applied (and fsync'd when the
// daemon is durable).
func (l *load) streamClosed(ctx context.Context) driveResult {
	return runDrivers(func(d int, r *driveResult) {
		c, err := stream.Dial(l.d.stream, stream.WithAckObserver(func(events int, rtt time.Duration) {
			// Runs on the connection's reader goroutine, the only one to
			// touch last and acks until Close below has returned.
			r.last = time.Now()
			r.acks = append(r.acks, ackPoint{at: r.last, events: events, lat: rtt})
		}))
		if err != nil {
			r.err = err
			return
		}
		r.first = time.Now()
		for k := 0; r.err == nil; k++ {
			pi := l.next(d, k)
			if pi < 0 {
				break
			}
			in, id := l.pool[pi], l.sessionID(d, k)
			ch, err := c.Open(id, procs, "bench")
			if err != nil {
				r.err = fmt.Errorf("session %s: open: %w", id, err)
				break
			}
			for _, evs := range batches(in.events, l.batch) {
				r.attempted++
				err = ch.Send(evs)
				if err == nil && l.serial {
					err = ch.Flush(ctx)
				}
				if err != nil {
					break
				}
			}
			if err == nil {
				err = ch.Flush(ctx)
			}
			_ = ch.Close()
			if err != nil {
				r.err = fmt.Errorf("session %s: send: %w", id, err)
				break
			}
			v, err := l.finish(ctx, id, false)
			if err != nil {
				r.err = err
				break
			}
			r.sessions = append(r.sessions, served{pool: pi, n: len(in.events), v: v})
		}
		_ = c.Close() // stops the reader: last and acks are ours again
		r.failed = r.attempted - len(r.acks)
	})
}

// jsonClosed drives POST /events in a closed loop: each driver has one
// request in flight on one kept-alive connection. 202 means accepted,
// and a batch's events count then; the flushing verdict at the end of a
// session is the apply barrier before its verdict is read. 429 is
// retried after a short pause and is not a failure.
func (l *load) jsonClosed(ctx context.Context) driveResult {
	return runDrivers(func(d int, r *driveResult) {
		r.first = time.Now()
		for k := 0; ; k++ {
			pi := l.next(d, k)
			if pi < 0 {
				return
			}
			in, id := l.pool[pi], l.sessionID(d, k)
			create, _ := json.Marshal(map[string]any{"id": id, "n": procs})
			resp, err := httpDo(ctx, http.MethodPost, l.d.http+"/v1/sessions", create)
			if err != nil || resp.status != http.StatusCreated {
				r.err = fmt.Errorf("session %s: create: status %d, %v", id, resp.status, err)
				return
			}
			url := l.d.http + "/v1/sessions/" + id + "/events"
			for bi, body := range in.bodies {
				r.attempted++
				for {
					start := time.Now()
					resp, err := httpDo(ctx, http.MethodPost, url, body)
					if err == nil && resp.status == http.StatusTooManyRequests {
						r.retries++
						time.Sleep(time.Millisecond)
						continue
					}
					if err != nil || resp.status != http.StatusAccepted {
						r.failed++
						r.err = fmt.Errorf("session %s: ingest: status %d, %v", id, resp.status, err)
						return
					}
					r.last = time.Now()
					r.acks = append(r.acks, ackPoint{at: r.last, events: min(l.batch, len(in.events)-bi*l.batch), lat: r.last.Sub(start)})
					break
				}
			}
			v, err := l.finish(ctx, id, true)
			if err != nil {
				r.err = err
				return
			}
			r.last = time.Now()
			r.sessions = append(r.sessions, served{pool: pi, n: len(in.events), v: v})
		}
	})
}

// paced drives RDTSTRM1 in an open loop at rate events per second in
// total: each driver owns one connection carrying two live sessions,
// and each session sends one batch every interval on a fixed schedule,
// whatever the daemon does. A batch is timed from when it was due, so a
// stall charges every batch it delayed; acks later than limit are
// counted. A session has one batch in flight: its next batch is sent
// when it is due or, if the ack came after that, at once.
func (l *load) paced(ctx context.Context, rate float64, limit time.Duration) driveResult {
	const perConn = 2
	pacers := drivers * perConn
	interval := time.Duration(float64(l.batch) * float64(pacers) / rate * float64(time.Second))
	start := time.Now().Add(10 * time.Millisecond)
	clients := make([]*stream.Client, drivers)
	for d := range clients {
		c, err := stream.Dial(l.d.stream)
		if err != nil {
			return driveResult{err: err}
		}
		defer c.Close() //nolint:errcheck
		clients[d] = c
	}
	results := make([]driveResult, pacers)
	var wg, fin sync.WaitGroup
	var (
		finMu    sync.Mutex // guards finished and finErr
		finished []served
		finErr   error
	)
	for p := 0; p < pacers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			r := &results[p]
			c := clients[p%drivers]
			// Pacers are staggered evenly across one interval.
			due := start.Add(interval * time.Duration(p) / time.Duration(pacers))
			r.first = due
			for k := 0; due.Before(l.until); k++ {
				pi := (p + k*pacers) % len(l.pool)
				in, id := l.pool[pi], l.sessionID(p, k)
				ch, err := c.Open(id, procs, "bench")
				if err != nil {
					r.err = fmt.Errorf("session %s: open: %w", id, err)
					return
				}
				n := 0
				for _, evs := range batches(in.events, l.batch) {
					if !due.Before(l.until) {
						break
					}
					time.Sleep(time.Until(due))
					r.attempted++
					r.late = append(r.late, time.Since(due))
					err := ch.Send(evs)
					if err == nil {
						err = ch.Flush(ctx)
					}
					if err != nil {
						r.failed++
						r.err = fmt.Errorf("session %s: send: %w", id, err)
						return
					}
					r.last = time.Now()
					lat := r.last.Sub(due)
					if lat > limit {
						r.overdue++
					}
					r.acks = append(r.acks, ackPoint{at: r.last, events: len(evs), lat: lat})
					n += len(evs)
					due = due.Add(interval)
				}
				_ = ch.Close()
				// The client reads its verdict off the schedule's clock: the
				// pacer's next session must not wait for it.
				fin.Add(1)
				go func(n int) {
					defer fin.Done()
					v, err := l.finish(ctx, id, false)
					finMu.Lock()
					defer finMu.Unlock()
					if err != nil && finErr == nil {
						finErr = err
					}
					finished = append(finished, served{pool: pi, n: n, v: v})
				}(n)
			}
		}(p)
	}
	wg.Wait()
	fin.Wait()
	m := merge(results)
	m.sessions = finished
	if m.err == nil {
		m.err = finErr
	}
	return m
}

// window is the slice of a steady run that is summarized on its own.
const window = time.Second

// summary is the user-visible outcome of an ingest run.
type summary struct {
	eventsPerS, p50, p95, p99 float64 // rate in events/s, latencies in ms
}

// summarize reduces a run to its rate and latency quantiles. A steady
// run (rotating sessions, so every second does the same kind of work)
// is cut into one-second windows from the first send, each window is
// summarized, and the medians over the full windows are reported: one
// noisy second of a shared machine then moves nothing. A run of fixed
// work that changes as it goes is summarized whole.
func (r *driveResult) summarize(steady bool) summary {
	whole := func(acks []ackPoint, span time.Duration) summary {
		lat := make([]time.Duration, len(acks))
		events := 0
		for i, a := range acks {
			lat[i], events = a.lat, events+a.events
		}
		var s summary
		s.p50, s.p95, s.p99 = msQuantiles(lat)
		if span > 0 {
			s.eventsPerS = float64(events) / span.Seconds()
		}
		return s
	}
	full := int(r.last.Sub(r.first) / window)
	if !steady || full < 3 {
		return whole(r.acks, r.last.Sub(r.first))
	}
	byWindow := make([][]ackPoint, full)
	for _, a := range r.acks {
		if i := int(a.at.Sub(r.first) / window); i >= 0 && i < full {
			byWindow[i] = append(byWindow[i], a)
		}
	}
	var rate, p50, p95, p99 []float64
	for _, acks := range byWindow {
		s := whole(acks, window)
		rate = append(rate, s.eventsPerS)
		if len(acks) > 0 {
			p50, p95, p99 = append(p50, s.p50), append(p95, s.p95), append(p99, s.p99)
		}
	}
	return summary{eventsPerS: median(rate), p50: median(p50), p95: median(p95), p99: median(p99)}
}
