package service_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/rgraph"
	"github.com/rdt-go/rdt/internal/service"
	"github.com/rdt-go/rdt/internal/stream"
	"github.com/rdt-go/rdt/internal/trace"
)

// lockstep is the reference a session's materialized pattern is held
// to: a model.Builder fed every accepted event as it is applied, each
// checkpoint annotated with the vector a checker of its own recorded —
// the mirror every session used to carry. The first rejected event
// poisons it, as it does the session.
type lockstep struct {
	inc      *rgraph.Incremental
	b        *model.Builder
	ih, bh   map[int]int
	poisoned bool
}

func newLockstep(t *testing.T, n int) *lockstep {
	t.Helper()
	inc, err := rgraph.NewIncremental(n)
	if err != nil {
		t.Fatal(err)
	}
	return &lockstep{inc: inc, b: model.NewBuilder(n), ih: map[int]int{}, bh: map[int]int{}}
}

func (l *lockstep) apply(t *testing.T, events []service.Event) {
	t.Helper()
	for _, ev := range events {
		if l.poisoned {
			return
		}
		switch ev.Op {
		case service.OpCheckpoint:
			kind := model.KindBasic
			if ev.Kind == "forced" {
				kind = model.KindForced
			}
			_, tdv, err := l.inc.Checkpoint(model.ProcID(ev.Proc))
			if err != nil {
				t.Fatalf("reference checkpoint: %v", err)
			}
			l.b.Checkpoint(model.ProcID(ev.Proc), kind, tdv)
		case service.OpSend:
			h, err := l.inc.Send(model.ProcID(ev.Proc), model.ProcID(ev.Peer))
			if err != nil {
				t.Fatalf("reference send: %v", err)
			}
			l.ih[ev.Msg] = h
			l.bh[ev.Msg] = l.b.Send(model.ProcID(ev.Proc), model.ProcID(ev.Peer))
		case service.OpDeliver:
			h, ok := l.ih[ev.Msg]
			if !ok {
				l.poisoned = true // the session rejects it and everything after
				return
			}
			if err := l.inc.Deliver(h); err != nil {
				t.Fatalf("reference deliver: %v", err)
			}
			if err := l.b.Deliver(l.bh[ev.Msg]); err != nil {
				t.Fatalf("reference deliver: %v", err)
			}
			delete(l.ih, ev.Msg)
		}
	}
}

// protect runs raw traffic through one BHMR instance per process and
// returns the stream the protected application would have produced: the
// same sends and deliveries plus the forced checkpoints.
func protect(t *testing.T, n int, raw []service.Event) []service.Event {
	t.Helper()
	var out []service.Event
	sink := func(rec core.CheckpointRecord) {
		switch rec.Kind {
		case model.KindBasic:
			out = append(out, service.Event{Op: service.OpCheckpoint, Proc: rec.Proc, Kind: "basic"})
		case model.KindForced:
			out = append(out, service.Event{Op: service.OpCheckpoint, Proc: rec.Proc, Kind: "forced"})
		}
	}
	insts := make([]core.Instance, n)
	for i := range insts {
		inst, err := core.New(core.KindBHMR, i, n, sink)
		if err != nil {
			t.Fatal(err)
		}
		insts[i] = inst
	}
	type flight struct {
		from, to int
		pb       core.Piggyback
	}
	pbs := map[int]flight{}
	for _, ev := range raw {
		switch ev.Op {
		case service.OpCheckpoint:
			insts[ev.Proc].TakeBasicCheckpoint()
		case service.OpSend:
			pb, forceAfter := insts[ev.Proc].OnSend(ev.Peer)
			pbs[ev.Msg] = flight{from: ev.Proc, to: ev.Peer, pb: pb}
			out = append(out, ev)
			if forceAfter {
				insts[ev.Proc].CheckpointAfterSend()
			}
		case service.OpDeliver:
			m := pbs[ev.Msg]
			insts[m.to].OnArrival(m.from, m.pb) // a forced checkpoint lands before the delivery
			out = append(out, ev)
		}
	}
	return out
}

func newService(t *testing.T, dataDir string) *service.Service {
	t.Helper()
	svc, err := service.New(service.Config{DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := svc.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return svc
}

func flushSession(t *testing.T, sess *service.Session) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sess.Flush(ctx); err != nil && !errors.Is(err, service.ErrFailed) {
		t.Fatalf("flush: %v", err)
	}
}

// feedBatches enqueues the batches in order, riding out backpressure.
func feedBatches(t *testing.T, sess *service.Session, batches [][]service.Event) {
	t.Helper()
	for _, b := range batches {
		for {
			err := sess.Enqueue(b)
			if err == nil {
				break
			}
			if !errors.Is(err, service.ErrBackpressure) {
				t.Fatalf("enqueue: %v", err)
			}
			flushSession(t, sess)
		}
	}
	flushSession(t, sess)
}

// TestPatternParity: the pattern a session materializes from its event
// log and the checker's vectors is, byte for byte in the trace format,
// the pattern the lockstep builder mirror accumulated — across traffic
// shapes, protected traffic, in-flight messages, sealing, a batch
// poisoned mid-way or refused at admission, and a passivate→reactivate
// in the middle of the run — and every witness derived over it verifies.
func TestPatternParity(t *testing.T) {
	const (
		plain = iota
		sealed
		poisoned
		reactivated
		variants
	)
	families := append(append([]string(nil), stream.TrafficShapes...), "bhmr")
	seeds := 240
	if testing.Short() {
		seeds = 60
	}
	memory := newService(t, "")
	durable := newService(t, t.TempDir())

	for seed := 0; seed < seeds; seed++ {
		family := families[seed%len(families)]
		variant := (seed / len(families)) % variants
		t.Run(fmt.Sprintf("seed%03d-%s-%d", seed, family, variant), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			n := 2 + rng.Intn(5)
			shape := family
			if family == "bhmr" {
				shape = "random"
			}
			tr, err := stream.NewTraffic(shape, n, int64(seed))
			if err != nil {
				t.Fatal(err)
			}
			events := tr.Next(nil, 60+rng.Intn(160))
			if family == "bhmr" {
				events = protect(t, n, events)
			}
			var batches [][]service.Event
			for rest := events; len(rest) > 0; {
				k := min(1+rng.Intn(9), len(rest))
				batches = append(batches, rest[:k:k])
				rest = rest[k:]
			}
			refused := -1 // the batch admission turns away whole
			if variant == poisoned {
				// An event the session must refuse in the middle of a batch in
				// the middle of the run. An unknown delivery poisons it: the
				// batch's head is applied, its tail and every later batch are
				// not. A malformed event, which only an in-process caller can
				// submit, is refused at Enqueue with its whole batch, and the
				// session carries on as if it had never been sent.
				pick := rng.Intn(3)
				poison := []service.Event{
					{Op: service.OpDeliver, Msg: 1 << 30},
					{Op: "bogus"},
					{Op: service.OpCheckpoint, Proc: -1},
				}[pick]
				at := len(batches) / 2
				b := batches[at]
				mid := len(b) / 2
				bad := append(append(append([]service.Event(nil), b[:mid]...), poison), b[mid:]...)
				batches[at] = bad
				if pick > 0 {
					refused = at
				}
			}

			svc := memory
			if variant == reactivated || seed%2 == 1 {
				svc = durable
			}
			id := fmt.Sprintf("parity-%d", seed)
			sess, err := svc.CreateSession(id, n)
			if err != nil {
				t.Fatal(err)
			}
			ref := newLockstep(t, n)
			for i, b := range batches {
				if i != refused {
					ref.apply(t, b)
				}
			}

			if variant == reactivated {
				half := len(batches) / 2
				feedBatches(t, sess, batches[:half])
				if !svc.Passivate(id, "idle") {
					t.Fatal("passivate: session was not live")
				}
				if sess, err = svc.Session(id); err != nil {
					t.Fatalf("reactivate: %v", err)
				}
				batches = batches[half:]
			}
			if variant == poisoned {
				// Enqueue refuses new batches once the poison is applied;
				// the reference ignores them the same way.
				for i, b := range batches {
					err := sess.Enqueue(b)
					if i == refused {
						if !errors.Is(err, service.ErrInvalidEvent) {
							t.Fatalf("enqueue of a malformed event: %v, want ErrInvalidEvent", err)
						}
						continue
					}
					if err != nil && !errors.Is(err, service.ErrFailed) {
						t.Fatalf("enqueue: %v", err)
					}
					flushSession(t, sess)
				}
			} else {
				feedBatches(t, sess, batches)
			}
			if variant == sealed {
				if err := sess.Seal(context.Background()); err != nil {
					t.Fatalf("seal: %v", err)
				}
			}

			wantP, wantLost, err := ref.b.Snapshot()
			if err != nil {
				t.Fatalf("reference snapshot: %v", err)
			}
			gotP, gotLost, err := sess.Snapshot()
			if err != nil {
				t.Fatalf("session snapshot: %v", err)
			}
			var want, got bytes.Buffer
			if err := trace.Save(&want, wantP); err != nil {
				t.Fatal(err)
			}
			if err := trace.Save(&got, gotP); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("materialized pattern differs from the lockstep mirror\n got: %s\nwant: %s", got.Bytes(), want.Bytes())
			}
			if !reflect.DeepEqual(gotLost, wantLost) {
				t.Fatalf("lost messages differ: %+v != %+v", gotLost, wantLost)
			}
			if v := sess.Verdict(0); (v.State == service.StateFailed) != ref.poisoned {
				t.Fatalf("state %q, but the reference is poisoned=%v", v.State, ref.poisoned)
			}
			p, witnesses, err := sess.Explain(0)
			if err != nil {
				t.Fatalf("explain: %v", err)
			}
			for _, w := range witnesses {
				if err := rgraph.VerifyWitness(p, w); err != nil {
					t.Fatalf("witness %s: %v", w, err)
				}
			}
		})
	}
}
