package service_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/recovery"
	"github.com/rdt-go/rdt/internal/rgraph"
	"github.com/rdt-go/rdt/internal/service"
	"github.com/rdt-go/rdt/internal/trace"
)

// maxStreamOps bounds a fuzzed stream: the model-level consumers judge
// every prefix from scratch.
const maxStreamOps = 48

var opCodes = []string{service.OpCheckpoint, service.OpSend, service.OpDeliver}

// streamOf decodes fuzz bytes into a process count and an event stream.
// The first byte picks n in [2,4]; then every three bytes are one event:
// op, proc<<4|peer, msg. Processes range over [0,n] — n itself is out of
// range — and message ids over [0,16), so self-sends, reused ids and
// unknown deliveries are a byte away.
func streamOf(data []byte) (int, []service.Event) {
	if len(data) == 0 {
		return 2, nil
	}
	n := 2 + int(data[0])%3
	var events []service.Event
	for b := data[1:]; len(b) >= 3 && len(events) < maxStreamOps; b = b[3:] {
		events = append(events, service.Event{
			Op:   opCodes[int(b[0])%len(opCodes)],
			Proc: int(b[1]>>4) % (n + 1),
			Peer: int(b[1]&15) % (n + 1),
			Msg:  int(b[2]) % 16,
		})
	}
	return n, events
}

// streamBytes is streamOf's inverse, for writing seeds.
func streamBytes(n int, events ...service.Event) []byte {
	out := []byte{byte(n - 2)}
	for _, ev := range events {
		out = append(out, byte(slices.Index(opCodes, ev.Op)), byte(ev.Proc<<4|ev.Peer), byte(ev.Msg))
	}
	return out
}

// step is an event in handle terms, as the consumers that know no client
// ids are fed it.
type step struct {
	op         string
	proc, peer int
	handle     int // a send's new handle; the handle a delivery names, or -1
}

// handles maps client message ids to the handles model.Builder and
// rgraph.Incremental hand out — both number sends from 0 — by the
// service's own rule: a send may not reuse an id ever sent, and a
// delivery names a message in flight or nothing. It returns the steps
// before the first reused id.
func handles(events []service.Event) []step {
	inFlight, used := map[int]int{}, map[int]bool{}
	var steps []step
	for _, ev := range events {
		st := step{op: ev.Op, proc: ev.Proc, peer: ev.Peer, handle: -1}
		switch ev.Op {
		case service.OpSend:
			if used[ev.Msg] {
				return steps
			}
			used[ev.Msg] = true
			st.handle = len(used) - 1
			inFlight[ev.Msg] = st.handle
		case service.OpDeliver:
			if h, ok := inFlight[ev.Msg]; ok {
				st.handle = h
				delete(inFlight, ev.Msg)
			}
		}
		steps = append(steps, st)
	}
	return steps
}

// builderPattern records steps on a model.Builder and finalizes it. The
// builder has a spare row for the one out-of-range process an event may
// name; the pattern claims the stream's n processes and keeps the spare
// row only if an event landed on it, for Validate to refuse. With complete
// set every message still in flight is delivered first, so the stream must
// extend to a whole legal run; without it they are dropped, as a seal
// drops them.
func builderPattern(n int, steps []step, complete bool) (*model.Pattern, error) {
	b := model.NewBuilder(n + 1)
	var flight []int
	for _, st := range steps {
		switch st.op {
		case service.OpCheckpoint:
			b.Checkpoint(model.ProcID(st.proc), model.KindBasic, nil)
		case service.OpSend:
			flight = append(flight, b.Send(model.ProcID(st.proc), model.ProcID(st.peer)))
		default:
			if err := b.Deliver(st.handle); err != nil {
				return nil, err
			}
			flight = slices.DeleteFunc(flight, func(h int) bool { return h == st.handle })
		}
	}
	var p *model.Pattern
	var err error
	if complete {
		for _, h := range flight {
			if err := b.Deliver(h); err != nil {
				return nil, err
			}
		}
		p, err = b.Finalize()
	} else {
		p, _, err = b.FinalizeLossy()
	}
	if err != nil {
		return nil, err
	}
	if len(p.Checkpoints[n]) == 1 {
		p.Checkpoints = p.Checkpoints[:n]
	}
	p.N = n
	return p, p.Validate()
}

// rawPattern writes steps down as a trace file would carry them: the
// builder's bookkeeping — a seq per process, an interval per endpoint, a
// final checkpoint closing each event-bearing interval, the spare row as
// builderPattern keeps it — without any of its judgement. Only a delivery
// of nothing cannot be written down.
func rawPattern(n int, steps []step, complete bool) (*model.Pattern, bool) {
	p := &model.Pattern{N: n, Checkpoints: make([][]model.Checkpoint, n+1)}
	seq, events := make([]int, n+1), make([]int, n+1)
	checkpoint := func(i int, kind model.CheckpointKind) {
		row := p.Checkpoints[i]
		p.Checkpoints[i] = append(row, model.Checkpoint{Proc: model.ProcID(i), Index: len(row), Seq: seq[i], Kind: kind})
		seq[i]++
		events[i] = 0
	}
	endpoint := func(i int) (interval, s int) {
		interval, s = len(p.Checkpoints[i]), seq[i]
		seq[i]++
		events[i]++
		return interval, s
	}
	sent := map[int]model.Message{}
	var flight []int
	deliver := func(h int) bool {
		m, ok := sent[h]
		if ok {
			delete(sent, h)
			m.DeliverInterval, m.DeliverSeq = endpoint(int(m.To))
			p.Messages = append(p.Messages, m)
		}
		return ok
	}
	for i := range p.Checkpoints {
		checkpoint(i, model.KindInitial)
	}
	for _, st := range steps {
		switch st.op {
		case service.OpCheckpoint:
			checkpoint(st.proc, model.KindBasic)
		case service.OpSend:
			m := model.Message{ID: st.handle, From: model.ProcID(st.proc), To: model.ProcID(st.peer)}
			m.SendInterval, m.SendSeq = endpoint(st.proc)
			sent[st.handle] = m
			flight = append(flight, st.handle)
		default:
			if !deliver(st.handle) {
				return nil, false
			}
		}
	}
	if complete {
		for _, h := range flight {
			deliver(h)
		}
	}
	for i := range p.Checkpoints {
		if events[i] > 0 {
			checkpoint(i, model.KindFinal)
		}
	}
	slices.SortFunc(p.Messages, func(a, b model.Message) int { return a.ID - b.ID })
	if len(p.Checkpoints[n]) == 1 {
		p.Checkpoints = p.Checkpoints[:n]
	}
	return p, true
}

// loadRaw sends rawPattern's output through trace.Save and trace.Load.
func loadRaw(t *testing.T, n int, steps []step, complete bool) (*model.Pattern, error) {
	p, ok := rawPattern(n, steps, complete)
	if !ok {
		return nil, fmt.Errorf("a delivery of nothing")
	}
	var buf bytes.Buffer
	if err := trace.Save(&buf, p); err != nil {
		t.Fatalf("save: %v", err)
	}
	return trace.Load(&buf)
}

// longest returns the largest k <= limit for which accepts(k) holds,
// judging prefixes in order.
func longest(limit int, accepts func(k int) bool) int {
	for k := 1; k <= limit; k++ {
		if !accepts(k) {
			return k - 1
		}
	}
	return limit
}

// checkerRun feeds steps to an rgraph.Incremental up to the first it
// refuses. A refused step must leave the checker's bytes as they were,
// and those bytes must decode.
func checkerRun(t *testing.T, n int, steps []step) (*rgraph.Incremental, int) {
	inc, err := rgraph.NewIncremental(n)
	if err != nil {
		t.Fatal(err)
	}
	accepted := len(steps)
	for k, st := range steps {
		before := inc.AppendBinary(nil)
		switch st.op {
		case service.OpCheckpoint:
			_, _, err = inc.Checkpoint(model.ProcID(st.proc))
		case service.OpSend:
			_, err = inc.Send(model.ProcID(st.proc), model.ProcID(st.peer))
		default:
			err = inc.Deliver(st.handle)
		}
		if err != nil {
			if !bytes.Equal(inc.AppendBinary(nil), before) {
				t.Fatalf("step %d %+v: refused (%v), but the checker changed", k, st, err)
			}
			accepted = k
			break
		}
	}
	if _, err := rgraph.DecodeIncremental(inc.AppendBinary(nil)); err != nil {
		t.Fatalf("the checker's own bytes do not decode: %v", err)
	}
	return inc, accepted
}

// outcome is what the consumers must agree on for the accepted prefix.
type outcome struct {
	accepted         int
	rdt              bool
	pairs, trackable int
	first            string // the first violation, "" for none
	line             string
}

func reportOutcome(accepted int, rep *rgraph.Report, line model.GlobalCheckpoint) outcome {
	o := outcome{accepted: accepted, rdt: rep.RDT, pairs: rep.RPathPairs, trackable: rep.TrackablePairs, line: fmt.Sprint(line)}
	if len(rep.Violations) > 0 {
		o.first = rep.Violations[0].String()
	}
	return o
}

// patternOutcome judges a finalized prefix by the batch checker; its
// recovery line is bounded by every process's last checkpoint before the
// final ones finalizing added.
func patternOutcome(t *testing.T, accepted int, p *model.Pattern) outcome {
	rep, err := rgraph.CheckRDT(p, 0)
	if err != nil {
		t.Fatalf("batch check: %v", err)
	}
	bounds := make(model.GlobalCheckpoint, p.N)
	for i, row := range p.Checkpoints {
		bounds[i] = len(row) - 1
		if row[bounds[i]].Kind == model.KindFinal {
			bounds[i]--
		}
	}
	line, err := rgraph.RecoveryLine(p, bounds)
	if err != nil {
		t.Fatalf("recovery line: %v", err)
	}
	return reportOutcome(accepted, rep, line)
}

// checkerOutcome judges the checker as a session does: the seal-now
// report, and the recovery line its recorded vectors give.
func checkerOutcome(t *testing.T, accepted int, inc *rgraph.Incremental) outcome {
	bounds := make(model.GlobalCheckpoint, inc.N())
	for i := range bounds {
		bounds[i] = inc.NextIndex(model.ProcID(i)) - 1
	}
	plan, err := recovery.Line(bounds, func(proc, index int) ([]int, error) {
		return inc.TDVAt(model.CkptID{Proc: model.ProcID(proc), Index: index}), nil
	})
	if err != nil {
		t.Fatalf("recovery line: %v", err)
	}
	return reportOutcome(accepted, inc.Report(0), plan.Line)
}

func sessionOutcome(t *testing.T, sess *service.Session) outcome {
	v := sess.Verdict(0)
	plan, err := sess.Line()
	if err != nil {
		t.Fatalf("line: %v", err)
	}
	o := outcome{accepted: int(v.EventsApplied), rdt: v.RDT, pairs: v.RPathPairs, trackable: v.TrackablePairs, line: fmt.Sprint(plan.Line)}
	if v.FirstViolation != nil {
		o.first = v.FirstViolation.String
	}
	return o
}

// streamSession feeds the events to a new session of svc as one batch.
func streamSession(t *testing.T, svc *service.Service, n int, events []service.Event) *service.Session {
	sess, err := svc.CreateSession("stream", n)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) > 0 {
		if err := sess.Enqueue(events); err != nil {
			t.Fatalf("enqueue: %v", err)
		}
	}
	flushSession(t, sess)
	return sess
}

func drain(t *testing.T, svc *service.Service) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// FuzzEventStream feeds one event stream to every consumer that judges
// one: (i) a model.Builder, finalized and checked by rgraph.CheckRDT;
// (ii) an rgraph.Incremental; (iii) a memory session; (iv) a durable
// session after Recover; (v) the stream written down unjudged, saved as a
// trace and read back by trace.Load. All five must accept the same
// longest prefix and, on it, agree on the RDT flag, the pair counts, the
// first violation and the recovery line. The model-level consumers take
// handles, so the stream reaches them through the service's id rule.
func FuzzEventStream(f *testing.F) {
	ev := func(op string, proc, peer, msg int) service.Event {
		return service.Event{Op: op, Proc: proc, Peer: peer, Msg: msg}
	}
	ckpt := func(p int) service.Event { return ev(service.OpCheckpoint, p, 0, 0) }
	send := func(from, to, msg int) service.Event { return ev(service.OpSend, from, to, msg) }
	dlv := func(msg int) service.Event { return ev(service.OpDeliver, 0, 0, msg) }
	zigzag := []service.Event{send(1, 0, 0), dlv(0), ckpt(0), send(0, 1, 1), dlv(1), ckpt(1)}
	for _, seed := range []struct {
		n      int
		events []service.Event
	}{
		{2, zigzag}, // violating, and legal throughout
		{3, []service.Event{send(0, 1, 0), dlv(0), ckpt(1), send(2, 0, 1), ckpt(0), dlv(1), ckpt(2)}},
		// A self-message delivered in its send interval: a checker that took
		// it put a self edge in its R-graph.
		{2, []service.Event{ckpt(1), send(0, 0, 0), dlv(0), ckpt(0), send(0, 1, 1)}},
		// A send reusing an id already delivered: the service's rule.
		{2, []service.Event{send(0, 1, 3), dlv(3), ckpt(1), send(1, 0, 3), dlv(3)}},
		// Unknown deliveries, mid-stream and of a delivered message; what
		// follows the poison a replay must not revive.
		{2, append(slices.Clone(zigzag[:3]), dlv(9), send(0, 1, 4), dlv(4))},
		{2, []service.Event{send(1, 0, 2), dlv(2), dlv(2), ckpt(0)}},
		// Out-of-range processes: a checkpoint, a receiver, a sender.
		{2, []service.Event{send(0, 1, 0), ckpt(2), dlv(0)}},
		{2, []service.Event{send(1, 0, 0), dlv(0), send(0, 2, 1)}},
		{2, []service.Event{send(2, 1, 0)}},
	} {
		f.Add(streamBytes(seed.n, seed.events...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		n, events := streamOf(data)
		steps := handles(events)

		// (i) and (v): the longest prefix that extends to a whole legal run.
		builderAcc := longest(len(steps), func(k int) bool {
			_, err := builderPattern(n, steps[:k], true)
			return err == nil
		})
		traceAcc := longest(len(steps), func(k int) bool {
			_, err := loadRaw(t, n, steps[:k], true)
			return err == nil
		})
		p, err := builderPattern(n, steps[:builderAcc], false)
		if err != nil {
			t.Fatalf("the accepted prefix does not finalize: %v", err)
		}
		loaded, err := loadRaw(t, n, steps[:traceAcc], false)
		if err != nil {
			t.Fatalf("the accepted prefix does not load: %v", err)
		}
		inc, checkerAcc := checkerRun(t, n, steps)

		memSess := streamSession(t, newService(t, ""), n, events)

		dir := t.TempDir()
		dur := newService(t, dir)
		streamSession(t, dur, n, events)
		drain(t, dur)
		rec := newService(t, dir)
		if _, err := rec.Recover(); err != nil {
			t.Fatalf("recover: %v", err)
		}
		recSess, err := rec.Session("stream")
		if err != nil {
			t.Fatalf("session after recovery: %v", err)
		}

		got := map[string]outcome{
			"builder": patternOutcome(t, builderAcc, p),
			"checker": checkerOutcome(t, checkerAcc, inc),
			"memory":  sessionOutcome(t, memSess),
			"durable": sessionOutcome(t, recSess),
			"trace":   patternOutcome(t, traceAcc, loaded),
		}
		for name, o := range got {
			if o != got["memory"] {
				t.Fatalf("n=%d %v:\n%-8s %+v\nmemory   %+v", n, events, name, o, got["memory"])
			}
		}
		if mv, rv := memSess.Verdict(0), recSess.Verdict(0); !reflect.DeepEqual(mv, rv) {
			t.Fatalf("the recovered verdict differs:\n  memory  %+v\n  durable %+v", mv, rv)
		}
	})
}
