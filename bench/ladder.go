package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/obs"
	"github.com/rdt-go/rdt/internal/rgraph"
	"github.com/rdt-go/rdt/internal/service"
	"github.com/rdt-go/rdt/internal/shard"
	"github.com/rdt-go/rdt/internal/sim"
	"github.com/rdt-go/rdt/internal/storage"
	"github.com/rdt-go/rdt/internal/stream"
	"github.com/rdt-go/rdt/internal/wal"
	simworkload "github.com/rdt-go/rdt/internal/workload"
)

// The ladder is the traced run: the same seeded inputs replayed
// in-process through successively taller stacks of the layers' public
// functions, every call wrapped in a span of the benchmark's own tracer.
// A layer's self time is the cost of the rung that adds it minus the
// rungs beneath; README.md has the table.

// ladderScale sizes the ladder.
type ladderScale struct {
	sessions int // rotating sessions replayed on each rung
	size     int // events of each
	snap     int // events of the snapshot and handoff session
	curve    int // events of the size-curve replay
	lookups  int // ring lookups
	sims     int // paper-scale simulations
}

var (
	ladderFull  = ladderScale{sessions: 16, size: 2048, snap: 1 << 13, curve: 1 << 15, lookups: 1 << 16, sims: 4}
	ladderSmoke = ladderScale{sessions: 1, size: 512, snap: 1 << 10, curve: 1 << 10, lookups: 1 << 8, sims: 1}
)

// curveOctaves are the session sizes of the size curve: octave k covers
// the events from 2^(k-1) (from the start, for the first) up to 2^k.
var curveOctaves = []int{8, 9, 10, 11, 12, 13, 14, 15}

// ladder is what the replay measured.
type ladder struct {
	m map[string]float64 // per-layer metric -> value; layers.go has the units
	// Cost per event, in ns, of each stack on this workload's traffic
	// and batch size: what the unexplained share is computed from.
	rgraphNS, modelNS, memNS, durableNS, streamNS, httpNS, enqueueNS float64
	reactivateMS, simMS                                              float64
	batch                                                            int
	// curve is the checker's time for each curveChunk events of one
	// growing session.
	curve []time.Duration
}

// curveChunk is the size curve's resolution, in events.
const curveChunk = 256

// batches cuts events into batches of size n.
func batches(events []service.Event, n int) [][]service.Event {
	var out [][]service.Event
	for off := 0; off < len(events); off += n {
		out = append(out, events[off:min(off+n, len(events))])
	}
	return out
}

// perEvent is a total duration as ns per event.
func perEvent(d time.Duration, events int) float64 {
	if events == 0 {
		return 0
	}
	return float64(d) / float64(events)
}

// runLadder replays the ladder for workload w and writes the span file.
func runLadder(e *env, w *workload, p params, sc ladderScale, tracePath string) (*ladder, error) {
	family, batch := w.family, w.batch
	if family == "" {
		family, batch = famUnprotected, 128
	}
	batch = min(batch, sc.size)
	l := &ladder{m: make(map[string]float64), batch: batch}
	set := func(name string, v float64) { l.m[name] = v }
	t := newTracer()
	ctx := context.Background()
	dir, err := os.MkdirTemp(e.runDir, "ladder-")
	if err != nil {
		return nil, err
	}

	// core: protecting the raw stream is the generator's own work, timed
	// here because it is the protocol layer's cost per event. The pool
	// it yields is the RDT traffic of the rungs below.
	rung := t.begin("core", -1, -1)
	bhmr := make([]*input, sc.sessions)
	basic, forced := 0, 0
	for i := range bhmr {
		sp := t.begin("core.protect", rung, i)
		if bhmr[i], err = genEvents(famBHMR, sessionSeed(p.seed, i), sc.size); err != nil {
			return nil, err
		}
		t.end(sp)
		basic, forced = basic+bhmr[i].basic, forced+bhmr[i].forced
	}
	t.end(rung)
	pool := bhmr
	if family == famUnprotected {
		pool = make([]*input, sc.sessions)
		for i := range pool {
			if pool[i], err = genEvents(famUnprotected, sessionSeed(p.seed, i), sc.size); err != nil {
				return nil, err
			}
		}
	}
	events := sc.sessions * sc.size
	nbatches := 0
	for _, in := range pool {
		nbatches += len(batches(in.events, batch))
	}
	set("core.protect_ns_per_event", perEvent(t.sum("core.protect"), events))
	set("core.forced_per_basic", float64(forced)/float64(max(basic, 1)))

	// rgraph: the incremental checker alone; then model: the Builder
	// mirror alone.
	checkers, err := replayRung(t, "rgraph", pool, batch, true)
	if err != nil {
		return nil, err
	}
	violations := 0
	for si, r := range checkers {
		sp := t.begin("rgraph.report", -1, si)
		r.inc.Report(service.DefaultMaxViolations)
		t.end(sp)
		violations += r.inc.Violations()
	}
	l.rgraphNS = perEvent(t.sum("rgraph.apply"), events)
	set("rgraph.apply_ns_per_event", l.rgraphNS)
	set("rgraph.report_ms", ms(t.sum("rgraph.report"))/float64(sc.sessions))
	set("rgraph.violations", float64(violations))
	if _, err := replayRung(t, "model", pool, batch, false); err != nil {
		return nil, err
	}
	l.modelNS = perEvent(t.sum("model.apply"), events)
	set("model.apply_ns_per_event", l.modelNS)

	// service, memory then durable: enqueue one batch, wait for the
	// worker's notify, next batch.
	if err := serviceRung(t, "service", "", pool, batch); err != nil {
		return nil, err
	}
	l.memNS = perEvent(t.sum("service.batch"), events)
	l.enqueueNS = float64(t.sum("service.enqueue")) / float64(nbatches)
	set("service.hop_self_ns_per_event", l.memNS-l.rgraphNS-l.modelNS)
	set("service.enqueue_ns_per_batch", l.enqueueNS)
	set("service.verdict_ms", ms(t.sum("service.verdict"))/float64(sc.sessions))
	dataDir := filepath.Join(dir, "durable")
	if err := serviceRung(t, "durable", dataDir, pool, batch); err != nil {
		return nil, err
	}
	l.durableNS = perEvent(t.sum("durable.batch"), events)

	// wal: scan the records the durable rung wrote, then append and sync
	// the same payloads to a fresh log.
	rung = t.begin("wal", -1, -1)
	var payloads [][]byte
	payloadBytes := 0
	for si := range pool {
		sp := t.begin("wal.scan", rung, si)
		_, torn, err := wal.ScanFrom(filepath.Join(dataDir, "sessions", ladderID(si), "wal.log"), 0, func(payload []byte) error {
			payloads = append(payloads, append([]byte(nil), payload...))
			payloadBytes += len(payload) + 8 // frame header
			return nil
		})
		t.end(sp)
		if err != nil || torn {
			return nil, fmt.Errorf("wal scan of session %d: torn=%v, %v", si, torn, err)
		}
	}
	if len(payloads) != nbatches {
		return nil, fmt.Errorf("wal holds %d records, the durable rung wrote %d batches", len(payloads), nbatches)
	}
	log, err := wal.OpenAppend(filepath.Join(dir, "replay.wal"))
	if err != nil {
		return nil, err
	}
	for i, payload := range payloads {
		rec := t.begin("wal.record", rung, i)
		sp := t.begin("wal.append", rec, i)
		err := log.Append(payload)
		t.end(sp)
		if err == nil {
			sp = t.begin("wal.sync", rec, i)
			err = log.Sync()
			t.end(sp)
		}
		t.end(rec)
		if err != nil {
			return nil, err
		}
	}
	_ = log.Close()
	t.end(rung)
	walNS := perEvent(t.sum("wal.append")+t.sum("wal.sync"), events)
	syncP50, _, syncP99 := msQuantiles(t.durations("wal.sync"))
	set("wal.append_ns_per_record", float64(t.sum("wal.append"))/float64(nbatches))
	set("wal.sync_us_p50", syncP50*1e3)
	set("wal.sync_us_p99", syncP99*1e3)
	set("wal.scan_ns_per_event", perEvent(t.sum("wal.scan"), events))
	set("wal.bytes_per_event", float64(payloadBytes)/float64(events))
	set("service.persist_self_ns_per_event", l.durableNS-l.memNS-walNS)

	// service.recover: a cold Service on the durable rung's directory.
	svc, err := newService(dataDir)
	if err != nil {
		return nil, err
	}
	sp := t.begin("service.recover", -1, -1)
	st, err := svc.Recover()
	t.end(sp)
	if err != nil || st.Sessions != sc.sessions {
		return nil, fmt.Errorf("recover: %d of %d sessions, %v", st.Sessions, sc.sessions, err)
	}
	_ = svc.Drain(ctx)
	set("service.recover_ms_per_session", ms(t.sum("service.recover"))/float64(sc.sessions))

	// stream: the same batches over an in-process loopback server, first
	// untraced, then traced; the difference is the tracing overhead.
	untraced, err := streamRung(nil, pool, batch)
	if err != nil {
		return nil, err
	}
	traced, err := streamRung(t, pool, batch)
	if err != nil {
		return nil, err
	}
	l.streamNS = perEvent(t.sum("stream.batch"), events)
	set("stream.wire_self_ns_per_event", l.streamNS-l.memNS)
	set("trace.overhead_share", float64(traced-untraced)/float64(untraced))

	// http: POST until 202, which is decode plus enqueue; the apply
	// happens behind it and is flushed, untimed, at the session's end.
	bodies := make([][][]byte, len(pool))
	for si, in := range pool {
		for _, evs := range batches(in.events, batch) {
			body, err := json.Marshal(evs)
			if err != nil {
				return nil, err
			}
			bodies[si] = append(bodies[si], body)
		}
	}
	if err := httpRung(ctx, t, bodies); err != nil {
		return nil, err
	}
	l.httpNS = perEvent(t.sum("http.post"), events)
	rung = t.begin("json", -1, -1)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for si := range bodies {
		for bi, body := range bodies[si] {
			sp := t.begin("service.json_decode", rung, si<<16|bi)
			_, release, err := service.DecodeEventsPooled(bytes.NewReader(body), service.DefaultMaxBatch)
			if err == nil {
				release()
			}
			t.end(sp)
			if err != nil {
				return nil, err
			}
		}
	}
	runtime.ReadMemStats(&ms1)
	t.end(rung)
	decodeNS := perEvent(t.sum("service.json_decode"), events)
	set("service.json_decode_ns_per_event", decodeNS)
	set("service.json_decode_allocs_per_batch", float64(ms1.Mallocs-ms0.Mallocs)/float64(nbatches))
	set("service.http_self_ns_per_event", l.httpNS-decodeNS-l.enqueueNS/float64(batch))

	big, err := genEvents(family, sessionSeed(p.seed, 0), sc.snap)
	if err != nil {
		return nil, err
	}
	if err := l.snapshotRung(t, dir, big); err != nil {
		return nil, err
	}
	if err := l.handoffRung(ctx, t, dir, big); err != nil {
		return nil, err
	}

	// shard: ownership lookups on a three-member ring.
	ring, err := shard.New(1, shard.DefaultVNodes, []shard.Member{
		{Name: "a", HTTP: "a:1"}, {Name: "b", HTTP: "b:1"}, {Name: "c", HTTP: "c:1"}})
	if err != nil {
		return nil, err
	}
	ids := make([]string, sc.lookups)
	for i := range ids {
		ids[i] = fmt.Sprintf("s%d-%d", p.seed, i)
	}
	sp = t.begin("shard.owner", -1, -1)
	owned := 0
	for _, id := range ids {
		if ring.Owner(id).Name == "a" {
			owned++
		}
	}
	t.end(sp)
	if owned == 0 || owned == len(ids) {
		return nil, fmt.Errorf("ring gave member a %d of %d sessions", owned, len(ids))
	}
	set("shard.owner_ns_per_lookup", perEvent(t.sum("shard.owner"), sc.lookups))

	// sim: paper-scale cells of the experiment grid, simulated and batch
	// checked the way the grid does.
	rung = t.begin("sim", -1, -1)
	for i := 0; i < sc.sims; i++ {
		cfg := sim.DefaultConfig(core.KindBHMR, p.seed+int64(i))
		cfg.Duration, cfg.BasicMean = 1500, 8 // experiments.Default(): N=8 already
		env, err := simworkload.ByName("random")
		if err != nil {
			return nil, err
		}
		cell := t.begin("sim.cell", rung, i)
		sp := t.begin("sim.run", cell, i)
		res, err := sim.Run(cfg, env)
		t.end(sp)
		if err != nil {
			return nil, err
		}
		sp = t.begin("rgraph.batch_check", cell, i)
		rep, err := rgraph.CheckRDT(res.Pattern, 0)
		t.end(sp)
		t.end(cell)
		if err != nil || !rep.RDT {
			return nil, fmt.Errorf("simulated bhmr run %d is not RDT: %v", i, err)
		}
	}
	t.end(rung)
	l.simMS = ms(t.sum("sim.run")) / float64(sc.sims)
	set("sim.run_ms_per_sim", l.simMS)
	set("rgraph.batch_check_ms", ms(t.sum("rgraph.batch_check"))/float64(sc.sims))

	// The size curve: one long RDT session straight into the checker,
	// timed in chunks and summed by octave of session size.
	in, err := genEvents(famBHMR, sessionSeed(p.seed, 0), sc.curve)
	if err != nil {
		return nil, err
	}
	r, err := newReplay(true, false)
	if err != nil {
		return nil, err
	}
	rung = t.begin("curve", -1, -1)
	for ci, evs := range batches(in.events, curveChunk) {
		sp := t.begin("rgraph.curve", rung, ci)
		err := r.apply(evs)
		t.end(sp)
		if err != nil {
			return nil, err
		}
	}
	t.end(rung)
	l.curve = t.durations("rgraph.curve")
	for k, oct := range curveOctaves {
		lo, hi := (1<<(oct-1))/curveChunk, (1<<oct)/curveChunk
		if k == 0 {
			lo = 0
		}
		var d time.Duration
		n := 0
		for ci := lo; ci < hi && ci < len(l.curve); ci++ {
			d, n = d+l.curve[ci], n+curveChunk
		}
		set(fmt.Sprintf("rgraph.apply_ns_per_event.2e%d", oct), perEvent(d, n))
	}

	if err := t.write(tracePath); err != nil {
		return nil, err
	}
	return l, nil
}

// replayRung replays each session of the pool, batch by batch, straight
// into a fresh checker (or, failing that, a fresh builder) under spans
// called <name>.apply, and returns the replays.
func replayRung(t *tracer, name string, pool []*input, batch int, checker bool) ([]*replay, error) {
	rung := t.begin(name, -1, -1)
	out := make([]*replay, len(pool))
	for si, in := range pool {
		r, err := newReplay(checker, !checker)
		if err != nil {
			return nil, err
		}
		sess := t.begin(name+".session", rung, si)
		for bi, evs := range batches(in.events, batch) {
			sp := t.begin(name+".apply", sess, si<<16|bi)
			err := r.apply(evs)
			t.end(sp)
			if err != nil {
				return nil, err
			}
		}
		t.end(sess)
		out[si] = r
	}
	t.end(rung)
	return out, nil
}

func ladderID(si int) string { return fmt.Sprintf("ladder-%d", si) }

// newService builds a Service the way cmd/rdtserved does, registry and
// violation tracer included: on traffic that violates RDT, recording
// the violations is a visible part of the hop.
func newService(dataDir string) (*service.Service, error) {
	return service.New(service.Config{
		DataDir:  dataDir,
		Registry: obs.NewRegistry(),
		Tracer:   obs.NewTracer(obs.DefaultTracerCapacity),
	})
}

// serviceRung replays the pool through a Service (durable when dataDir
// is set), one batch at a time: enqueue, wait for the worker's notify.
// Spans are <name>.batch, with service.enqueue beneath the memory rung's.
func serviceRung(t *tracer, name, dataDir string, pool []*input, batch int) error {
	svc, err := newService(dataDir)
	if err != nil {
		return err
	}
	rung := t.begin(name, -1, -1)
	done := make(chan error, 1)
	notify := func(err error) { done <- err }
	for si, in := range pool {
		sess, err := svc.CreateSession(ladderID(si), procs)
		if err != nil {
			return err
		}
		ss := t.begin(name+".session", rung, si)
		for bi, evs := range batches(in.events, batch) {
			sp := t.begin(name+".batch", ss, si<<16|bi)
			en := t.begin(name+".enqueue", sp, si<<16|bi)
			_, err := sess.EnqueueSeq("bench", uint64(bi+1), evs, false, notify)
			t.end(en)
			if err == nil {
				err = <-done
			}
			t.end(sp)
			if err != nil {
				return fmt.Errorf("%s rung: session %d batch %d: %w", name, si, bi, err)
			}
		}
		sp := t.begin(name+".verdict", ss, si)
		v := sess.Verdict(0)
		t.end(sp)
		t.end(ss)
		if v.EventsApplied != int64(len(in.events)) {
			return fmt.Errorf("%s rung: session %d applied %d of %d events", name, si, v.EventsApplied, len(in.events))
		}
	}
	t.end(rung)
	return svc.Drain(context.Background())
}

// streamRung replays the pool over RDTSTRM1 against an in-process
// server on loopback, one batch in flight, and returns its wall time.
func streamRung(t *tracer, pool []*input, batch int) (time.Duration, error) {
	svc, err := newService("")
	if err != nil {
		return 0, err
	}
	srv, err := stream.Serve("127.0.0.1:0", stream.Config{Service: svc})
	if err != nil {
		return 0, err
	}
	defer srv.Close() //nolint:errcheck
	c, err := stream.Dial(srv.Addr())
	if err != nil {
		return 0, err
	}
	defer c.Close() //nolint:errcheck
	ctx := context.Background()
	start := time.Now()
	rung := t.begin("stream", -1, -1)
	for si, in := range pool {
		ch, err := c.Open(ladderID(si), procs, "bench")
		if err != nil {
			return 0, err
		}
		ss := t.begin("stream.session", rung, si)
		for bi, evs := range batches(in.events, batch) {
			sp := t.begin("stream.batch", ss, si<<16|bi)
			err := ch.Send(evs)
			if err == nil {
				err = ch.Flush(ctx)
			}
			t.end(sp)
			if err != nil {
				return 0, fmt.Errorf("stream rung: session %d batch %d: %w", si, bi, err)
			}
		}
		t.end(ss)
		_ = ch.Close()
	}
	t.end(rung)
	took := time.Since(start)
	_ = c.Close()
	_ = srv.Close()
	return took, svc.Drain(ctx)
}

// httpRung replays pre-encoded batches over POST /events against an
// in-process handler on loopback.
func httpRung(ctx context.Context, t *tracer, bodies [][][]byte) error {
	svc, err := newService("")
	if err != nil {
		return err
	}
	srv, err := service.ServeHandler("127.0.0.1:0", service.NewHandler(svc))
	if err != nil {
		return err
	}
	defer srv.Close() //nolint:errcheck
	base := "http://" + srv.Addr()
	rung := t.begin("http", -1, -1)
	for si := range bodies {
		id := ladderID(si)
		create, _ := json.Marshal(map[string]any{"id": id, "n": procs})
		if resp, err := httpDo(ctx, http.MethodPost, base+"/v1/sessions", create); err != nil || resp.status != http.StatusCreated {
			return fmt.Errorf("http rung: create: status %d, %v", resp.status, err)
		}
		ss := t.begin("http.session", rung, si)
		for bi, body := range bodies[si] {
			sp := t.begin("http.post", ss, si<<16|bi)
			resp, err := httpDo(ctx, http.MethodPost, base+"/v1/sessions/"+id+"/events", body)
			t.end(sp)
			if err != nil || resp.status != http.StatusAccepted {
				return fmt.Errorf("http rung: session %d batch %d: status %d, %v", si, bi, resp.status, err)
			}
		}
		t.end(ss)
		if resp, err := httpDo(ctx, http.MethodGet, base+"/v1/sessions/"+id+"/verdict?flush=1", nil); err != nil || resp.status != http.StatusOK {
			return fmt.Errorf("http rung: flush: status %d, %v", resp.status, err)
		}
	}
	t.end(rung)
	_ = srv.Close()
	return svc.Drain(ctx)
}

// snapshotRung encodes and decodes the state of one session of the
// workload's traffic, twice the size a snapshot is first taken at, and
// writes a file of that size durably.
func (l *ladder) snapshotRung(t *tracer, dir string, in *input) error {
	r, err := newReplay(true, true)
	if err != nil {
		return err
	}
	if err := r.apply(in.events); err != nil {
		return err
	}
	const reps = 3
	rung := t.begin("snapshot", -1, -1)
	var incBytes, bldBytes []byte
	for i := 0; i < reps; i++ {
		sp := t.begin("rgraph.snapshot_encode", rung, i)
		incBytes = r.inc.AppendBinary(incBytes[:0])
		t.end(sp)
		sp = t.begin("rgraph.snapshot_decode", rung, i)
		inc, err := rgraph.DecodeIncremental(incBytes)
		t.end(sp)
		if err != nil || inc.NumCheckpoints() != r.inc.NumCheckpoints() {
			return fmt.Errorf("checker snapshot does not round-trip: %v", err)
		}
		sp = t.begin("model.snapshot_encode", rung, i)
		bldBytes = r.b.AppendBinary(bldBytes[:0])
		t.end(sp)
		sp = t.begin("model.snapshot_decode", rung, i)
		b, err := model.DecodeBuilder(bldBytes)
		t.end(sp)
		if err != nil || b.NextMessageID() != r.b.NextMessageID() {
			return fmt.Errorf("builder snapshot does not round-trip: %v", err)
		}
		sp = t.begin("storage.write_durable", rung, i)
		err = storage.WriteFileDurable(filepath.Join(dir, "snapshot.bin"), append(incBytes, bldBytes...))
		t.end(sp)
		if err != nil {
			return err
		}
	}
	t.end(rung)
	medianMS := func(name string) float64 { p50, _, _ := msQuantiles(t.durations(name)); return p50 }
	l.m["rgraph.snapshot_bytes"] = float64(len(incBytes))
	l.m["rgraph.snapshot_encode_ms"] = medianMS("rgraph.snapshot_encode")
	l.m["rgraph.snapshot_decode_ms"] = medianMS("rgraph.snapshot_decode")
	l.m["model.snapshot_bytes"] = float64(len(bldBytes))
	l.m["model.snapshot_encode_ms"] = medianMS("model.snapshot_encode")
	l.m["model.snapshot_decode_ms"] = medianMS("model.snapshot_decode")
	l.m["storage.write_durable_ms"] = medianMS("storage.write_durable")
	return nil
}

// handoffRung moves one session between two durable Services the way a
// rebalance does: passivate, reactivate, export, import, serve.
func (l *ladder) handoffRung(ctx context.Context, t *tracer, dir string, in *input) error {
	ref, err := referenceVerdict(in.events)
	if err != nil {
		return err
	}
	from, err := newService(filepath.Join(dir, "from"))
	if err != nil {
		return err
	}
	to, err := newService(filepath.Join(dir, "to"))
	if err != nil {
		return err
	}
	const id = "handoff"
	sess, err := from.CreateSession(id, procs)
	if err != nil {
		return err
	}
	for _, evs := range batches(in.events, 256) {
		for {
			err := sess.Enqueue(evs)
			if err == nil {
				break
			}
			if err != service.ErrBackpressure {
				return err
			}
			time.Sleep(time.Millisecond)
		}
	}
	if err := sess.Flush(ctx); err != nil {
		return err
	}
	rung := t.begin("handoff", -1, -1)
	sp := t.begin("service.passivate", rung, -1)
	live := from.Passivate(id, "bench")
	t.end(sp)
	if !live {
		return fmt.Errorf("handoff: session was not live")
	}
	sp = t.begin("service.reactivate", rung, -1)
	_, err = from.Session(id)
	t.end(sp)
	if err != nil {
		return fmt.Errorf("handoff: reactivate: %w", err)
	}
	sp = t.begin("service.export", rung, -1)
	files, err := from.ExportSession(id)
	t.end(sp)
	if err != nil {
		return fmt.Errorf("handoff: export: %w", err)
	}
	sp = t.begin("service.import", rung, -1)
	err = to.ImportSession(id, files)
	if err == nil {
		sess, err = to.Session(id)
	}
	t.end(sp)
	t.end(rung)
	if err != nil {
		return fmt.Errorf("handoff: import: %w", err)
	}
	v := sess.Verdict(0)
	if v.EventsApplied != ref.Events || v.RDT != ref.RDT || v.RPathPairs != ref.RPathPairs || v.TrackablePairs != ref.Trackable {
		return fmt.Errorf("handoff: imported session answers %+v, reference %+v", v, ref)
	}
	bytes := 0
	for _, data := range files {
		bytes += len(data)
	}
	l.reactivateMS = ms(t.sum("service.reactivate"))
	l.m["service.passivate_ms"] = ms(t.sum("service.passivate"))
	l.m["service.reactivate_ms"] = l.reactivateMS
	l.m["service.export_ms"] = ms(t.sum("service.export"))
	l.m["service.import_ms"] = ms(t.sum("service.import"))
	l.m["service.handoff_bytes"] = float64(bytes)
	_ = from.Drain(ctx)
	return to.Drain(ctx)
}
