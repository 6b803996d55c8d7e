package main

import (
	"runtime"
	"time"
)

// perLayer declares the per-layer metrics, in report order: names are
// <package>.<metric>. BENCHMARK.json repeats the list; the smoke test
// holds the two together. Every traced run reports every one of them.
var perLayer = []struct{ name, unit, better string }{
	// From the ladder replay.
	{"rgraph.apply_ns_per_event", "ns", "lower"},
	{"rgraph.apply_ns_per_event.2e8", "ns", "lower"},
	{"rgraph.apply_ns_per_event.2e9", "ns", "lower"},
	{"rgraph.apply_ns_per_event.2e10", "ns", "lower"},
	{"rgraph.apply_ns_per_event.2e11", "ns", "lower"},
	{"rgraph.apply_ns_per_event.2e12", "ns", "lower"},
	{"rgraph.apply_ns_per_event.2e13", "ns", "lower"},
	{"rgraph.apply_ns_per_event.2e14", "ns", "lower"},
	{"rgraph.apply_ns_per_event.2e15", "ns", "lower"},
	{"rgraph.snapshot_bytes", "B", "lower"},
	{"rgraph.snapshot_encode_ms", "ms", "lower"},
	{"rgraph.snapshot_decode_ms", "ms", "lower"},
	{"rgraph.report_ms", "ms", "lower"},
	{"rgraph.batch_check_ms", "ms", "lower"},
	{"rgraph.violations", "count", "lower"},
	{"model.apply_ns_per_event", "ns", "lower"},
	{"model.snapshot_bytes", "B", "lower"},
	{"model.snapshot_encode_ms", "ms", "lower"},
	{"model.snapshot_decode_ms", "ms", "lower"},
	{"core.protect_ns_per_event", "ns", "lower"},
	{"core.forced_per_basic", "ratio", "lower"},
	{"wal.append_ns_per_record", "ns", "lower"},
	{"wal.sync_us_p50", "us", "lower"},
	{"wal.sync_us_p99", "us", "lower"},
	{"wal.scan_ns_per_event", "ns", "lower"},
	{"wal.bytes_per_event", "B", "lower"},
	{"storage.write_durable_ms", "ms", "lower"},
	{"service.hop_self_ns_per_event", "ns", "lower"},
	{"service.persist_self_ns_per_event", "ns", "lower"},
	{"service.enqueue_ns_per_batch", "ns", "lower"},
	{"service.json_decode_ns_per_event", "ns", "lower"},
	{"service.json_decode_allocs_per_batch", "count", "lower"},
	{"service.http_self_ns_per_event", "ns", "lower"},
	{"service.verdict_ms", "ms", "lower"},
	{"service.passivate_ms", "ms", "lower"},
	{"service.reactivate_ms", "ms", "lower"},
	{"service.export_ms", "ms", "lower"},
	{"service.import_ms", "ms", "lower"},
	{"service.handoff_bytes", "B", "lower"},
	{"service.recover_ms_per_session", "ms", "lower"},
	{"stream.wire_self_ns_per_event", "ns", "lower"},
	{"shard.owner_ns_per_lookup", "ns", "lower"},
	{"sim.run_ms_per_sim", "ms", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
	// Scraped from the child (its /metrics, /proc and rusage) and from
	// the generator after this run's own drive of the workload.
	{"wal.appends", "count", "lower"},
	{"wal.snapshots", "count", "lower"},
	{"wal.replay_records", "count", "lower"},
	{"service.backpressure_share", "ratio", "lower"},
	{"stream.backpressure_waits", "count", "lower"},
	{"stream.dup_frames", "count", "lower"},
	{"experiments.sims", "count", "higher"},
	{"daemon.cpu_us_per_event", "us", "lower"},
	{"daemon.peak_rss_mb", "MB", "lower"},
	{"gen.cpu_us_per_event", "us", "lower"},
	{"gen.late_share", "ratio", "lower"},
	{"gen.late_p99_ms", "ms", "lower"},
	{"gen.overdue_share", "ratio", "lower"},
	{"run.events_per_s", "1/s", "higher"},
	{"run.ack_p95_ms", "ms", "lower"},
	{"run.ack_p99_ms", "ms", "lower"},
	{"run.failed_share", "ratio", "lower"},
	{"run.verdict_mismatches", "count", "lower"},
	// The two together.
	{"ladder.unexplained_share", "ratio", "lower"},
}

func perLayerNames() []string {
	names := make([]string, len(perLayer))
	for i, m := range perLayer {
		names[i] = m.name
	}
	return names
}

// lateAfter is how far behind its schedule a paced send may start
// before it counts as late.
const lateAfter = time.Millisecond

// perLayerMetrics joins the ladder's numbers with what this run's drive
// of the workload left in the child's counters.
func perLayerMetrics(w *workload, o *outcome, l *ladder) map[string]metric {
	m := l.m
	per := func(d time.Duration) float64 { // us per unit of work
		if o.events == 0 {
			return 0
		}
		return float64(d) / float64(time.Microsecond) / float64(o.events)
	}
	m["wal.appends"] = o.scrape["rdt_wal_appends_total"]
	m["wal.snapshots"] = o.scrape["rdt_wal_snapshots_total"]
	m["wal.replay_records"] = o.scrape["rdt_wal_replay_records_total"]
	refused := o.scrape["rdt_service_backpressure_total"]
	m["service.backpressure_share"] = refused / max(refused+float64(o.attempted), 1)
	m["stream.backpressure_waits"] = o.scrape["rdt_stream_backpressure_waits_total"]
	m["stream.dup_frames"] = o.scrape["rdt_stream_dup_frames_total"]
	sims := float64(ladderFull.sims)
	if w.name == "paper-grid" {
		sims = float64(o.events)
	}
	m["experiments.sims"] = sims
	m["daemon.cpu_us_per_event"] = per(o.cpu)
	m["daemon.peak_rss_mb"] = o.peakMB
	m["gen.cpu_us_per_event"] = per(o.genCPU)
	late := 0
	for _, d := range o.late {
		if d > lateAfter {
			late++
		}
	}
	_, _, lateP99 := msQuantiles(o.late)
	m["gen.late_share"] = float64(late) / float64(max(len(o.late), 1))
	m["gen.late_p99_ms"] = lateP99
	m["gen.overdue_share"] = float64(o.overdue) / float64(max(o.attempted, 1))
	m["run.events_per_s"] = o.eventsPerS
	m["run.ack_p95_ms"] = o.ackP95
	m["run.ack_p99_ms"] = o.ackP99
	m["run.failed_share"] = float64(o.failed) / float64(max(o.attempted, 1))
	m["run.verdict_mismatches"] = float64(o.mismatches)
	endToEnd, stack := explained(w, o, l)
	share := 0.0
	if endToEnd > 0 {
		share = (endToEnd - stack) / endToEnd
	}
	m["ladder.unexplained_share"] = share
	out := make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		if v, ok := m[d.name]; ok {
			out[d.name] = metric{v, d.unit}
		}
	}
	return out
}

// explained returns, in the same unit, what one unit of the workload's
// work cost end to end and what the ladder's layers account for; the
// rest is the unexplained share. For a closed loop the end-to-end cost
// of an event is a driver's time per event, since each driver's
// sessions are applied on their own worker.
func explained(w *workload, o *outcome, l *ladder) (endToEnd, stack float64) {
	perDriver := 0.0 // ns per event
	if o.eventsPerS > 0 {
		perDriver = drivers * 1e9 / o.eventsPerS
	}
	durable := l.streamNS - l.memNS + l.durableNS
	switch {
	case w.name == "restart-recover":
		// ms per recovered session against one reactivation from a
		// snapshot of a session of about that size.
		return ms(o.wall) / float64(max(o.attempted, 1)), l.reactivateMS
	case w.name == "paper-grid":
		// ms of one worker per simulation against one simulated
		// paper-scale cell.
		return ms(o.wall) * float64(runtime.GOMAXPROCS(0)) / float64(max(o.events, 1)), l.simMS
	case w.wire == wireJSON:
		// The POST, then the apply behind it.
		return perDriver, l.httpNS + l.memNS - l.enqueueNS/float64(l.batch)
	case w.wire == wirePaced:
		// Below saturation a batch's latency, not the rate, is the cost.
		return o.ackP50 * 1e6 / float64(w.batch), durable
	case w.fixed:
		// The checker's share at the sizes this session went through
		// replaces its share at the ladder's small sessions.
		return perDriver, l.curveAverage(o.events/drivers) + l.streamNS - l.rgraphNS
	case w.durable:
		return perDriver, durable
	default:
		return perDriver, l.streamNS
	}
}

// curveAverage is the checker's mean cost per event, in ns, over a
// session that grows from nothing to n events. Past the curve's end the
// last chunk's cost stands in.
func (l *ladder) curveAverage(n int) float64 {
	if n == 0 || len(l.curve) == 0 {
		return 0
	}
	var total time.Duration
	for ci := 0; ci*curveChunk < n; ci++ {
		total += l.curve[min(ci, len(l.curve)-1)]
	}
	return float64(total) / float64(n)
}
