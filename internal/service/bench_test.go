package service

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"github.com/rdt-go/rdt/internal/obs"
)

// BenchmarkDurableIngest is the durable session worker end to end —
// enqueue, WAL append, fsync, apply, notify — over 2048-event sessions
// cut into 32-event batches, at two queue depths: depth1 keeps one batch
// in flight (every commit group is a group of one, an fsync per batch),
// depth64 parks the whole session in the queue, as a closed-loop stream
// client does, and lets the worker commit what it finds queued.
// batches/sync is WAL records per fsync.
func BenchmarkDurableIngest(b *testing.B) {
	const perBatch = 32
	events := genWorkload(rand.New(rand.NewSource(1)), 4, 2048)
	for _, depth := range []int{1, 64} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			reg := obs.NewRegistry()
			svc, err := New(Config{DataDir: b.TempDir(), Registry: reg})
			if err != nil {
				b.Fatal(err)
			}
			defer func() {
				if err := svc.Drain(context.Background()); err != nil {
					b.Error(err)
				}
			}()
			slots := make(chan struct{}, depth) // batches in flight
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sess, err := svc.CreateSession(fmt.Sprintf("bench-%d", i), 4)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for rest := events; len(rest) > 0; rest = rest[min(perBatch, len(rest)):] {
					slots <- struct{}{}
					err := sess.EnqueueNotify(rest[:min(perBatch, len(rest))], func(err error) {
						if err != nil {
							b.Error(err)
						}
						<-slots
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				for k := 0; k < depth; k++ { // every slot free: the session is applied
					slots <- struct{}{}
				}
				for k := 0; k < depth; k++ {
					<-slots
				}
				b.StopTimer()
				svc.Evict(sess.ID, "explicit")
				b.StartTimer()
			}
			b.StopTimer()
			snap := reg.Snapshot()
			b.ReportMetric(float64(b.N*len(events))/b.Elapsed().Seconds(), "events/s")
			b.ReportMetric(float64(snap.CounterValue("rdt_wal_appends_total"))/
				float64(max(snap.CounterValue("rdt_wal_syncs_total"), 1)), "batches/sync")
		})
	}
}

// BenchmarkQueueHop is one batch's trip through a session with one batch
// in flight: EnqueueEncoded (a stream frame's admission), the worker's
// commit — on a durable session its WAL append and fsync — and apply, and
// the notify the caller waits on. An op is one batch. Sessions of 8
// processes rotate every 4096 events outside the timer, so apply costs
// what it does in a small session. ns/event is ns/batch over the batch's
// events.
func BenchmarkQueueHop(b *testing.B) {
	const procs, perSession = 8, 4096
	events := genWorkload(rand.New(rand.NewSource(1)), procs, perSession)
	for _, mode := range []string{"mem", "durable"} {
		for _, size := range []int{1, 64, 512} {
			var frames [][]byte // perSession is a multiple of every size
			for rest := events; len(rest) > 0; rest = rest[size:] {
				var raw []byte
				for k := range rest[:size] {
					var err error
					if raw, err = AppendEvent(raw, &rest[k]); err != nil {
						b.Fatal(err)
					}
				}
				frames = append(frames, raw)
			}
			b.Run(fmt.Sprintf("%s/batch%d", mode, size), func(b *testing.B) {
				var cfg Config
				if mode == "durable" {
					cfg.DataDir = b.TempDir()
				}
				svc, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				defer func() {
					if err := svc.Drain(context.Background()); err != nil {
						b.Error(err)
					}
				}()
				done := make(chan error, 1)
				notify := func(err error) { done <- err }
				var sess *Session
				next, sessions := len(frames), 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if next == len(frames) {
						b.StopTimer()
						if sess != nil {
							svc.Evict(sess.ID, "explicit")
							<-sess.workerDone
						}
						if sess, err = svc.CreateSession(fmt.Sprintf("hop-%d", sessions), procs); err != nil {
							b.Fatal(err)
						}
						next, sessions = 0, sessions+1
						b.StartTimer()
					}
					if _, err := sess.EnqueueEncoded("p", uint64(next+1), size, frames[next], false, notify); err != nil {
						b.Fatal(err)
					}
					if err := <-done; err != nil {
						b.Fatal(err)
					}
					next++
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/batch")
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/event")
			})
		}
	}
}

// BenchmarkIngestViolating is a memory session's commit path on
// unprotected traffic — 2048-event sessions of 8 processes in 128-event
// batches, the mem-rotate shape, queued whole and flushed — with the
// service's violation tracer (traced) and without one (untraced): the
// difference is what reporting the violations costs. violations/event is
// rdt_service_violations_total over the events applied.
func BenchmarkIngestViolating(b *testing.B) {
	const perBatch = 128
	events := genWorkload(rand.New(rand.NewSource(1)), 8, 2048)
	var records []record
	for rest := events; len(rest) > 0; rest = rest[min(perBatch, len(rest)):] {
		rec, err := encodeRecord(rest[:min(perBatch, len(rest))], false, "", 0)
		if err != nil {
			b.Fatal(err)
		}
		records = append(records, rec)
	}
	for _, traced := range []bool{true, false} {
		name := "untraced"
		if traced {
			name = "traced"
		}
		b.Run(name, func(b *testing.B) {
			reg := obs.NewRegistry()
			cfg := Config{Registry: reg}
			if traced {
				cfg.Tracer = obs.NewTracer(obs.DefaultTracerCapacity)
			}
			svc, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer func() {
				if err := svc.Drain(context.Background()); err != nil {
					b.Error(err)
				}
			}()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sess, err := svc.CreateSession(fmt.Sprintf("bench-%d", i), 8)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, rec := range records {
					if err := sess.enqueue(batch{record: rec}); err != nil {
						b.Fatal(err)
					}
				}
				if err := sess.Flush(context.Background()); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				svc.Evict(sess.ID, "explicit")
				b.StartTimer()
			}
			b.StopTimer()
			applied := float64(b.N * len(events))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/applied, "ns/event")
			b.ReportMetric(float64(reg.Snapshot().CounterValue("rdt_service_violations_total"))/applied, "violations/event")
		})
	}
}

// BenchmarkDecodeEvents is the JSON ingest decode of one body shaped as
// bench's json-rotate posts them — 128 events of 8 processes — from the
// body to the record admission enqueues: the one-pass scanner
// (decodeBatch, the ingest handler's path) against the encoding/json
// decoder it replaced followed by the admission's encodeRecord (oracle).
func BenchmarkDecodeEvents(b *testing.B) {
	body := jsonBody(b, 128)
	for _, tc := range []struct {
		name   string
		decode func() error
	}{
		{"scanner", func() error {
			_, err := decodeBatch(bytes.NewReader(body), 0)
			return err
		}},
		{"oracle", func() error {
			events, err := oracleDecode(bytes.NewReader(body), 0)
			if err == nil {
				_, err = encodeRecord(events, false, "", 0)
			}
			return err
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tc.decode(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms1)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(128*b.N), "ns/event")
			b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(b.N), "allocs/batch")
		})
	}
}
