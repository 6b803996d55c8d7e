package rgraph_test

import (
	"flag"
	"fmt"
	"testing"

	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/rgraph"
	"github.com/rdt-go/rdt/internal/service"
	"github.com/rdt-go/rdt/internal/stream"
)

const scalingProcs = 8

// widths is the process-count axis of the checker's benchmarks.
var widths = []int{scalingProcs, 32, 128}

// trafficEvents generates count events over n processes the way the repo
// benchmark does at n = 8 (bench/gen.go): stream.NewTraffic("random", n,
// seed) as is ("unprotected": basic checkpoints only, violates RDT
// heavily), or passed through n BHMR instances that add the forced
// checkpoints which make it RDT ("bhmr").
func trafficEvents(tb testing.TB, family string, n int, seed int64, count int) []service.Event {
	tb.Helper()
	tr, err := stream.NewTraffic("random", n, seed)
	if err != nil {
		tb.Fatal(err)
	}
	if family == "unprotected" {
		return tr.Next(make([]service.Event, 0, count), count)
	}
	var out []service.Event
	insts := make([]core.Instance, n)
	for i := range insts {
		insts[i], err = core.New(core.KindBHMR, i, n, func(rec core.CheckpointRecord) {
			if rec.Kind != model.KindInitial {
				out = append(out, service.Event{Op: service.OpCheckpoint, Proc: rec.Proc})
			}
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
	type sent struct {
		from, to int
		pb       core.Piggyback
	}
	pbs := make(map[int]sent)
	var raw [1]service.Event
	for len(out) < count {
		switch ev := tr.Next(raw[:0], 1)[0]; ev.Op {
		case service.OpCheckpoint:
			insts[ev.Proc].TakeBasicCheckpoint()
		case service.OpSend:
			pb, forceAfter := insts[ev.Proc].OnSend(ev.Peer)
			pbs[ev.Msg] = sent{ev.Proc, ev.Peer, pb}
			out = append(out, ev)
			if forceAfter {
				insts[ev.Proc].CheckpointAfterSend()
			}
		case service.OpDeliver:
			m := pbs[ev.Msg]
			delete(pbs, ev.Msg)
			insts[m.to].OnArrival(m.from, m.pb) // a forced checkpoint lands before the delivery
			out = append(out, ev)
		}
	}
	return out[:count]
}

// feeder applies service events to a checker, mapping client message
// ids to the handles the checker hands out.
type feeder struct {
	inc     *rgraph.Incremental
	handles map[int]int
}

func newFeeder(tb testing.TB, n int) *feeder {
	inc, err := rgraph.NewIncremental(n)
	if err != nil {
		tb.Fatal(err)
	}
	return &feeder{inc: inc, handles: make(map[int]int)}
}

func (f *feeder) apply(tb testing.TB, events []service.Event) {
	for _, ev := range events {
		var err error
		switch ev.Op {
		case service.OpCheckpoint:
			_, _, err = f.inc.Checkpoint(model.ProcID(ev.Proc))
		case service.OpSend:
			f.handles[ev.Msg], err = f.inc.Send(model.ProcID(ev.Proc), model.ProcID(ev.Peer))
		case service.OpDeliver:
			err = f.inc.Deliver(f.handles[ev.Msg])
			delete(f.handles, ev.Msg)
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
}

var oracleScaling = flag.Bool("oracle-scaling", false,
	"TestIncrementalScalingGuard also runs the bitset oracle and logs its word merges per event (tens of seconds)")

// TestIncrementalScalingGuard pins the shape of the apply cost without a
// clock: on BHMR-protected traffic the closure work per event (grow
// visits, each O(n)) must not grow with the session — the last octave of
// a 2^15-event session may cost at most twice what the first 2^10 events
// did — and the closure must be n entries per node.
func TestIncrementalScalingGuard(t *testing.T) {
	const first, total = 1 << 10, 1 << 15
	events := trafficEvents(t, "bhmr", scalingProcs, 1, total)
	f := newFeeder(t, scalingProcs)
	var oracle *rgraph.ClosureOracle
	if *oracleScaling {
		oracle = &rgraph.ClosureOracle{}
	}
	// Cumulative work after 2^10, 2^14 and 2^15 events.
	var visits, merges [3]int
	from := 0
	for k, cut := range []int{first, total / 2, total} {
		if oracle == nil {
			f.apply(t, events[from:cut])
		} else {
			for e := from; e < cut; e++ {
				f.apply(t, events[e:e+1])
				oracle.Sync(f.inc)
			}
			merges[k] = oracle.WordMerges()
		}
		visits[k] = f.inc.GrowVisits()
		from = cut
	}
	head := float64(visits[0]) / first
	tail := float64(visits[2]-visits[1]) / (total / 2)
	t.Logf("grow visits per event: %.2f over the first 2^10 events, %.2f over the last octave of 2^15 (ratio %.2f); %d nodes",
		head, tail, tail/head, f.inc.Nodes())
	if oracle != nil {
		t.Logf("bitset oracle word merges per event: %.1f over the first 2^10 events, %.1f over the last octave of 2^15",
			float64(merges[0])/first, float64(merges[2]-merges[1])/(total/2))
	}
	if tail > 2*head {
		t.Errorf("closure work per event grew with the session: %.2f grow visits over the last octave, %.2f over the first 2^10 events", tail, head)
	}
	if got, want := f.inc.MinReachLen(), f.inc.Nodes()*scalingProcs; got != want {
		t.Errorf("minReach has %d entries, want nodes*n = %d", got, want)
	}
	if v := f.inc.Violations(); v != 0 {
		t.Errorf("BHMR-protected traffic has %d violations", v)
	}
}

// TestIncrementalAllocs pins the checker's allocations without a clock:
// a 2^15-event BHMR session, fed through the benchmark's feeder, makes
// fewer than one heap object per two events. Send stamps and recorded
// vectors come from slabs and chunks, so what is left is mostly a
// predecessor list per checkpoint and the growth of slices and maps.
func TestIncrementalAllocs(t *testing.T) {
	const total = 1 << 15
	events := trafficEvents(t, "bhmr", scalingProcs, 1, total)
	allocs := testing.AllocsPerRun(2, func() { newFeeder(t, scalingProcs).apply(t, events) })
	t.Logf("%.0f allocations for %d events (%.2f per event)", allocs, total, allocs/total)
	if allocs >= total/2 {
		t.Errorf("%.0f allocations for a %d-event session, want under %d", allocs, total, total/2)
	}
}

// BenchmarkIncrementalApply is the checker's layer benchmark: ns per
// event to apply a whole session of the given length and width, on both
// traffic families.
func BenchmarkIncrementalApply(b *testing.B) {
	for _, family := range []string{"bhmr", "unprotected"} {
		for _, n := range widths {
			for _, lg := range []int{10, 13, 15} {
				events := trafficEvents(b, family, n, 1, 1<<lg)
				b.Run(fmt.Sprintf("%s/n=%d/2e%d", family, n, lg), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						newFeeder(b, n).apply(b, events)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N<<lg), "ns/event")
				})
			}
		}
	}
}

var benchSink int

// BenchmarkIncrementalReport times the seal-now report of an open
// 2^13-event session of each width.
func BenchmarkIncrementalReport(b *testing.B) {
	for _, family := range []string{"bhmr", "unprotected"} {
		for _, n := range widths {
			f := newFeeder(b, n)
			f.apply(b, trafficEvents(b, family, n, 1, 1<<13))
			b.Run(fmt.Sprintf("%s/n=%d", family, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchSink += f.inc.Report(16).RPathPairs
				}
			})
		}
	}
}

// BenchmarkDecodeIncremental times the snapshot decode of a 2^13-event
// session: the closure is re-derived from the edge list, so this is the
// cost of reactivating or importing a session.
func BenchmarkDecodeIncremental(b *testing.B) {
	for _, family := range []string{"bhmr", "unprotected"} {
		f := newFeeder(b, scalingProcs)
		f.apply(b, trafficEvents(b, family, scalingProcs, 1, 1<<13))
		enc := f.inc.AppendBinary(nil)
		b.Run(family, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			for i := 0; i < b.N; i++ {
				dec, err := rgraph.DecodeIncremental(enc)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += dec.Violations()
			}
		})
	}
}
