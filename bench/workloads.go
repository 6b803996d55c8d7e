package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"time"
)

// nominalSeconds is the run length the fixed-work workloads are sized
// for on the seed state; -seconds scales their work in proportion.
const nominalSeconds = 8

// setups is how often a run repeats its set-up, to report the median.
const setups = 5

// Wires a workload can drive.
const (
	wireStream = "stream" // RDTSTRM1, closed loop
	wireJSON   = "json"   // POST /events, closed loop
	wirePaced  = "paced"  // RDTSTRM1, open loop at a fixed rate
)

// Fixed points of the paced workload: its offered load is well below
// what the durable daemon sustains, so it shows latency and not
// throughput.
const (
	pacedRate  = 20000 // events per second, all sessions together
	pacedLimit = 250 * time.Millisecond
)

// workload is one row of the benchmark: what runs and why.
type workload struct {
	name string
	why  string

	// Ingest workloads (wire != "") replay a pool of generated sessions
	// against a fresh daemon.
	wire    string
	durable bool
	family  string
	size    int // events per session
	pool    int // distinct sessions, replayed round-robin under fresh ids
	batch   int // events per batch
	// fixed makes the run one pass over the pool, one batch in flight
	// per session, instead of rotating until the deadline: the work is
	// the same on every run and size is scaled to the run length.
	fixed bool

	// run is set for the workloads that are not an ingest run.
	run func(ctx context.Context, e *env, p params) (*outcome, error)
}

// workloads is the benchmark, in the order it is reported.
// BENCHMARK.json repeats the names and the reasons.
var workloads = []workload{
	{
		name: "mem-rotate", wire: wireStream, family: famUnprotected, size: 2048, pool: 256, batch: 128,
		why: "memory daemon, RDTSTRM1 closed loop, rotating 2048-event sessions: wire, queue hop and small-session apply dominate, the WAL does nothing",
	},
	{
		name: "json-rotate", wire: wireJSON, family: famUnprotected, size: 2048, pool: 256, batch: 128,
		why: "the same sessions over HTTP/JSON: same service core through the other wire, so a stream-only gain must not move it",
	},
	{
		name: "durable-rotate", wire: wireStream, durable: true, family: famBHMR, size: 2048, pool: 64, batch: 32,
		why: "durable daemon, closed loop, small batches of RDT traffic: WAL append, fsync per batch and snapshot writes dominate",
	},
	{
		name: "durable-paced", wire: wirePaced, durable: true, family: famBHMR, size: 4096, pool: 16, batch: 64,
		why: "durable daemon, open loop at 20000 events/s below saturation, two sessions per connection: shows ack latency and head-of-line stalls, not throughput",
	},
	{
		name: "long-session", wire: wireStream, family: famBHMR, size: 28672, pool: drivers, batch: 64, fixed: true,
		why: "memory daemon, one ever-growing RDT session per connection: the incremental checker's closure rows do nearly all the work and hold the memory",
	},
	{
		name: "restart-recover", run: runRestartRecover,
		why: "kill -9 a durable daemon holding long unsealed sessions, restart it and fetch every verdict: the read side of WAL and snapshots",
	},
	{
		name: "paper-grid", run: runPaperGrid,
		why: "rdtexperiments at the paper-scale grid, CSVs byte-identical to results/: the reproduction itself, where the serving layers do nothing",
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// params are the arguments of one run.
type params struct {
	seed    int64
	seconds float64
	// setups is how often the set-up is repeated (the constant, except
	// in the smoke test).
	setups int
}

// scaled sizes fixed work for the run length: n at nominalSeconds.
func (p params) scaled(n, floor int) int {
	return max(floor, int(float64(n)*p.seconds/nominalSeconds+0.5))
}

// outcome is what one run of one workload measured.
type outcome struct {
	setupS     []float64 // one per set-up
	eventsPerS float64
	ackP50     float64 // ms
	peakMB     float64 // the child's resident high-water mark

	attempted  int // batches, sessions or simulations
	failed     int
	mismatches int      // sessions (or CSV files) that differ from the reference
	aborted    bool     // the run broke off: an error, or the deadline
	problems   []string // what went wrong, for the human reader

	// The rest feeds the per-layer report.
	samples int           // latency samples behind the ack quantiles
	ackP95  float64       // ms, summarized like ackP50
	ackP99  float64       // ms, over the whole run
	overdue int           // paced acks later than the latency limit
	events  int           // units of work done in the measured phase
	wall    time.Duration // length of the measured phase
	cpu     time.Duration // child CPU, whole life
	scrape  map[string]float64
	retries int
	late    []time.Duration
	genCPU  time.Duration // this process's CPU during the measured phase
	digest  string        // of the generated pool
	pool    []*input
}

func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < 8 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// runWorkload runs w once under a deadline of three times what the run
// takes on the seed state. On expiry the child is killed, which unblocks
// every driver, and the run reports all of its work as failed instead
// of hanging.
func runWorkload(ctx context.Context, e *env, w *workload, p params) (*outcome, error) {
	ctx, cancel := context.WithTimeout(ctx, time.Duration(3*p.seconds*float64(time.Second))+45*time.Second)
	defer cancel()
	var o *outcome
	var err error
	if w.run != nil {
		o, err = w.run(ctx, e, p)
	} else {
		o, err = runIngest(ctx, e, w, p)
	}
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		o.problem("deadline exceeded: child killed")
		o.aborted = true
	}
	if o.aborted {
		o.attempted = max(o.attempted, 1)
		o.failed = o.attempted
	}
	return o, nil
}

// dataDir returns a fresh data directory under the run's scratch.
func (e *env) dataDir() (string, error) { return os.MkdirTemp(e.runDir, "data-") }

// runIngest is the shape of the five ingest workloads: set up (inputs,
// reference verdicts, a fresh daemon) three times to report the median,
// drive the last daemon for the run length, then compare every served
// verdict with the reference after the clock has stopped.
func runIngest(ctx context.Context, e *env, w *workload, p params) (*outcome, error) {
	o := &outcome{}
	var d *daemon
	var pool []*input
	for i := 0; i < p.setups; i++ {
		if d != nil {
			d.kill()
		}
		start := time.Now()
		jsonBatch := 0
		if w.wire == wireJSON {
			jsonBatch = w.batch
		}
		size := w.size
		if w.fixed {
			// The checker's cost per event grows with the session, so the
			// work of a session grows with the square of its length.
			size = w.batch * max(2, int(float64(w.size/w.batch)*math.Sqrt(p.seconds/nominalSeconds)+0.5))
		}
		var err error
		// A run much shorter than nominal replays a smaller pool.
		if pool, err = genPool(w.family, p.seed, min(w.pool, p.scaled(w.pool, drivers)), size, jsonBatch); err != nil {
			return nil, err
		}
		dir := ""
		if w.durable {
			if dir, err = e.dataDir(); err != nil {
				return nil, err
			}
		}
		if d, err = e.startDaemon(ctx, dir); err != nil {
			return nil, err
		}
		o.setupS = append(o.setupS, time.Since(start).Seconds())
	}
	stop := context.AfterFunc(ctx, func() { d.kill() })
	defer stop()
	defer d.kill()

	l := &load{d: d, pool: pool, batch: w.batch, serial: w.fixed, once: w.fixed,
		tag: fmt.Sprintf("s%d", p.seed), until: time.Now().Add(time.Duration(p.seconds * float64(time.Second)))}
	cpu0 := selfCPU()
	var r driveResult
	switch w.wire {
	case wireStream:
		r = l.streamClosed(ctx)
	case wireJSON:
		r = l.jsonClosed(ctx)
	case wirePaced:
		r = l.paced(ctx, pacedRate, pacedLimit)
	}
	o.genCPU = selfCPU() - cpu0
	o.scrape = d.scrape(ctx)
	u := d.kill()

	o.pool, o.digest = pool, poolDigest(pool)
	o.events, o.wall = r.events(), r.last.Sub(r.first)
	o.cpu, o.peakMB = u.cpu, u.peakMB
	o.attempted, o.failed, o.retries, o.late = r.attempted, r.failed, r.retries, r.late
	o.samples = len(r.acks)
	whole, sum := r.summarize(false), r.summarize(!w.fixed)
	o.eventsPerS, o.ackP50, o.ackP95, o.ackP99 = sum.eventsPerS, sum.p50, sum.p95, whole.p99
	if w.wire == wirePaced {
		// An open loop's rate is the schedule's: whole windows would all
		// read the same, to the batch.
		o.eventsPerS = whole.eventsPerS
	}
	o.overdue = r.overdue
	if r.err != nil {
		o.problem("%v", r.err)
		o.aborted = true
	}
	if len(r.sessions) == 0 {
		o.problem("no session finished")
		o.mismatches++
	}
	for _, s := range r.sessions {
		ref := pool[s.pool].ref
		if s.n != len(pool[s.pool].events) { // cut short by the deadline
			var err error
			if ref, err = referenceVerdict(pool[s.pool].events[:s.n]); err != nil {
				return nil, err
			}
		}
		if d := s.v.diff(ref); d != "" {
			o.mismatches++
			o.problem("session of input %d (%d events): served != reference:%s", s.pool, s.n, d)
		}
	}
	return o, nil
}

// Sizes of restart-recover at nominalSeconds: sessions long enough that
// each holds a snapshot and a WAL tail, and that decoding the snapshot
// costs more than reading it.
const (
	recoverSessions = 12
	recoverEvents   = 8000
	recoverRounds   = 3
)

// runRestartRecover measures a cold start on a populated data
// directory. Each of its rounds sets up (ingest unsealed sessions into a
// durable daemon, kill -9) and then measures (exec on the same
// directory until every session's verdict has been served and equals
// the reference). Work done is the events the restart had to bring
// back; a session's latency is the time from exec until its verdict was
// served.
func runRestartRecover(ctx context.Context, e *env, p params) (*outcome, error) {
	o := &outcome{}
	sessions := p.scaled(recoverSessions, drivers)
	var rates, peaks []float64
	var lat []time.Duration
	for round := 0; round < min(recoverRounds, p.setups); round++ {
		start := time.Now()
		pool, err := genPool(famUnprotected, p.seed, sessions, recoverEvents, 0)
		if err != nil {
			return nil, err
		}
		o.pool, o.digest = pool, poolDigest(pool)
		dir, err := e.dataDir()
		if err != nil {
			return nil, err
		}
		d, err := e.startDaemon(ctx, dir)
		if err != nil {
			return nil, err
		}
		stop := context.AfterFunc(ctx, func() { d.kill() })
		l := &load{d: d, pool: pool, batch: 256, once: true, keep: true, tag: fmt.Sprintf("s%d", p.seed)}
		r := l.streamClosed(ctx)
		d.kill()
		stop()
		if r.err != nil {
			return nil, fmt.Errorf("pre-ingest: %w", r.err)
		}
		o.setupS = append(o.setupS, time.Since(start).Seconds())

		begin := time.Now()
		d, err = e.startDaemon(ctx, dir)
		if err != nil {
			o.problem("restart: %v", err)
			o.aborted = true
			break
		}
		stop = context.AfterFunc(ctx, func() { d.kill() })
		for i := 0; i < sessions; i++ {
			// Driver d's k-th session replayed pool[d+k*drivers].
			id := l.sessionID(i%drivers, i/drivers)
			o.attempted++
			v, err := fetchVerdict(ctx, d.http, id, false)
			if err != nil {
				o.failed++
				o.problem("%v", err)
				continue
			}
			lat = append(lat, time.Since(begin))
			if d := v.diff(pool[i].ref); d != "" {
				o.mismatches++
				o.problem("session %s: recovered != reference:%s", id, d)
			}
		}
		took := time.Since(begin)
		o.scrape = d.scrape(ctx)
		u := d.kill()
		stop()
		o.events += sessions * recoverEvents
		o.wall += took
		o.cpu += u.cpu
		rates = append(rates, float64(sessions*recoverEvents)/took.Seconds())
		peaks = append(peaks, u.peakMB)
		_ = os.RemoveAll(dir)
	}
	o.eventsPerS, o.peakMB = median(rates), median(peaks)
	o.samples = len(lat)
	o.ackP50, o.ackP95, o.ackP99 = msQuantiles(lat)
	return o, nil
}

var reCompleted = regexp.MustCompile(`completed (\d+) simulations`)

// gridSims is the size of the paper-scale grid.
const gridSims = 828

// runPaperGrid runs the reproduction itself. Set-up is the reduced grid,
// which proves the binary works before the clock starts; the measured
// phase is the paper-scale grid, whose CSVs must equal results/ byte for
// byte. Its inputs are fixed by the paper, not by the seed. A run far
// shorter than nominal measures the reduced grid and compares nothing.
func runPaperGrid(ctx context.Context, e *env, p params) (*outcome, error) {
	o := &outcome{}
	grid := func(args ...string) (sims int, took time.Duration, u usage, err error) {
		start := time.Now()
		c, err := startChild(e.exper, args...)
		if err != nil {
			return 0, 0, u, err
		}
		stop := context.AfterFunc(ctx, func() { c.kill() })
		defer stop()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for running := true; running; {
			select {
			case <-c.done:
				running = false
			case <-tick.C:
				// VmHWM only exists while the child does.
				u.peakMB = max(u.peakMB, c.peakRSS())
			}
		}
		took = time.Since(start)
		u.cpu = c.kill().cpu
		if c.err != nil {
			return 0, took, u, fmt.Errorf("rdtexperiments: %v\n%s", c.err, c.output())
		}
		if m := reCompleted.FindStringSubmatch(c.output()); m != nil {
			sims, _ = strconv.Atoi(m[1])
		}
		return sims, took, u, nil
	}
	for i := 0; i < p.setups; i++ {
		start := time.Now()
		if _, _, _, err := grid("-quick"); err != nil {
			return nil, err
		}
		o.setupS = append(o.setupS, time.Since(start).Seconds())
	}
	full := p.seconds >= nominalSeconds/2
	csvDir := filepath.Join(e.runDir, "csv")
	args := []string{"-csv", csvDir}
	o.attempted = gridSims
	if !full {
		args = append(args, "-quick")
		o.attempted = 0
	}
	sims, took, u, err := grid(args...)
	if err != nil {
		o.problem("%v", err)
		o.aborted = true
		return o, nil
	}
	if !full {
		o.attempted = sims
	}
	o.failed = max(0, o.attempted-sims)
	o.events, o.wall, o.cpu, o.peakMB = sims, took, u.cpu, u.peakMB
	o.eventsPerS = float64(sims) / took.Seconds()
	o.samples = 1
	o.ackP50, o.ackP95, o.ackP99 = ms(took), ms(took), ms(took)
	if full {
		want, err := filepath.Glob(filepath.Join(e.root, "results", "*.csv"))
		if err != nil || len(want) == 0 {
			return nil, fmt.Errorf("no reference CSVs under results/: %v", err)
		}
		for _, ref := range want {
			a, _ := os.ReadFile(ref)
			b, err := os.ReadFile(filepath.Join(csvDir, filepath.Base(ref)))
			if err != nil || !bytes.Equal(a, b) {
				o.mismatches++
				o.problem("%s differs from results/", filepath.Base(ref))
			}
		}
	}
	return o, nil
}
