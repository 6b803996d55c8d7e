package sim

import (
	"math/rand"

	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/obs"
)

// LiveRun exports liveRun to the external tests, which may import the
// workloads.
var LiveRun = liveRun

// liveRun is the engine as it was before runs were split into a record
// and replays: the protocol runs interleaved with the event loop, each
// event's protocol calls made before the next event is popped, and a
// basic-checkpoint attempt is skipped by looking at the live builder. It
// drives the same *Engine, since workloads hold one, but never calls the
// engine's basicTick, and it reads only the sends off the engine's tape.
// It takes each piggyback from OnSend, an immutable snapshot it keeps in
// flight, where the replay has SendInto write the slot it owns, so it
// shares no piggyback storage with the replay. It is the oracle of
// TestReplayMatchesLiveRun.
func liveRun(cfg Config, w Workload) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), w: w}
	l := &replay{builder: model.NewBuilder(cfg.N), events: make([]int, cfg.N)}
	for i := 0; i < cfg.N; i++ {
		inst, err := core.New(cfg.Protocol, i, cfg.N, l.sink)
		if err != nil {
			return nil, err
		}
		l.insts = append(l.insts, inst)
	}
	if cfg.Obs != nil || cfg.Tracer != nil {
		l.obs = newReplayObs(cfg.Obs, cfg.Tracer, cfg.Protocol)
	}
	// flights maps an in-flight slot to its message's handle and
	// piggyback; done is how much of the tape the protocol has seen.
	flights := map[int32]flight{}
	done := 0
	sends := func() {
		for ; done < len(e.ops); done++ {
			o := e.ops[done]
			if o.Kind != OpSend {
				continue
			}
			from, to := int(o.Proc), int(o.Peer)
			inst := l.insts[from]
			pb, forceAfter := inst.OnSend(to)
			handle := l.builder.Send(model.ProcID(from), model.ProcID(to))
			if l.obs != nil {
				l.obs.messages.Inc()
				l.obs.tracer.Record(obs.Event{Type: obs.EventSend, Proc: from, Peer: to, Value: handle})
			}
			if forceAfter {
				inst.CheckpointAfterSend()
			}
			flights[o.Slot] = flight{handle: handle, pb: pb}
		}
	}

	w.Start(e)
	sends()
	for i := 0; i < cfg.N; i++ {
		e.scheduleBasic(i)
	}
	for e.q.len() > 0 {
		at, item := e.q.pop()
		e.now = at
		switch item.kind {
		case itemArrive:
			slot, from, to, payload := int32(item.handle), item.from, item.to, item.payload
			f := flights[slot]
			delete(flights, slot)
			inst := l.insts[to]
			if cfg.Monitor != nil {
				cfg.Monitor(inst, from, f.pb)
			}
			inst.OnArrival(from, f.pb)
			if err := l.builder.Deliver(f.handle); err != nil {
				return nil, err
			}
			if l.obs != nil {
				l.obs.deliveries.Inc()
				l.obs.tracer.Record(obs.Event{Type: obs.EventDeliver, Proc: to, Peer: from, Value: f.handle})
			}
			e.arrive(slot, from, to, payload)
		case itemBasic:
			if proc := item.from; e.Active() {
				if l.builder.EventsSinceCheckpoint(model.ProcID(proc)) > 0 {
					l.insts[proc].TakeBasicCheckpoint()
				}
				e.scheduleBasic(proc)
			}
		case itemWake:
			e.w.OnWake(e, item.from, item.handle)
		}
		sends()
	}
	if l.obs != nil {
		l.obs.flush()
	}
	pattern, err := l.builder.Finalize()
	if err != nil {
		return nil, err
	}
	return &Result{
		Pattern:             pattern,
		Stats:               pattern.Stats(),
		Protocol:            cfg.Protocol,
		Workload:            w.Name(),
		WireBytesPerMessage: l.insts[0].WireSize(),
	}, nil
}
