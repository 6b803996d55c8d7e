// Package sim is a deterministic discrete-event simulator for checkpoint
// and communication patterns: n sequential processes connected by
// asynchronous reliable channels with unpredictable finite delays, each
// process running one communication-induced checkpointing protocol
// instance and taking basic checkpoints independently, with a pluggable
// workload generating the communication. It reproduces the simulation
// study of the paper's evaluation.
//
// Runs are fully deterministic for a given Config (single-threaded event
// loop, one seeded random source, stable tie-breaking), which makes the
// experiments and the property-based tests reproducible. A run is two
// steps: Record simulates the schedule, which no protocol can change, and
// Schedule.Run replays one protocol over it, so a sweep over protocols
// simulates each schedule once. Schedule.Count is the replay that only
// counts checkpoints and messages: it builds no pattern. NewSchedule
// builds a schedule from a tape of Ops without the engine.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/obs"
	"github.com/rdt-go/rdt/internal/vclock"
)

// Config parameterizes one simulation run.
type Config struct {
	// N is the number of processes.
	N int
	// Protocol selects the checkpointing protocol every process runs.
	Protocol core.Kind
	// Seed seeds the simulation's random source.
	Seed int64
	// Duration is the simulated time horizon; no new workload activity or
	// basic checkpoint is initiated after it (in-flight messages still
	// arrive).
	Duration float64

	// BasicMean is the mean of the uniform distribution of the intervals
	// between basic-checkpoint attempts, U[(1-basicSpread)·mean,
	// (1+basicSpread)·mean]. An attempt is skipped when its process has
	// had no event since its last checkpoint.
	BasicMean float64

	// DelayMin and DelayMax bound the uniform message transmission delay.
	DelayMin, DelayMax float64

	// Monitor, when non-nil, is invoked for every message arrival before
	// the protocol processes it — the hook used by the predicate-hierarchy
	// tests. The piggyback is lent for the length of the call: the replay
	// writes its buffers again for a later message, so a monitor that
	// keeps it keeps a Clone.
	Monitor func(inst core.Instance, from int, pb core.Piggyback)

	// Obs, if non-nil, receives the run's metrics (messages, deliveries,
	// per-predicate forced checkpoints), labeled by protocol so
	// comparison sweeps share one registry. It does not perturb the
	// simulation's determinism. The counters are added to once, when the
	// run ends; the tracer records each event as it happens.
	Obs *obs.Registry
	// Tracer, if non-nil, records the run's structured events into its
	// bounded ring.
	Tracer *obs.Tracer
}

// basicSpread is the half-width of the basic-checkpoint interval
// distribution relative to its mean: U[0.5·mean, 1.5·mean].
const basicSpread = 0.5

// DefaultConfig returns a configuration with the baseline parameters used
// by the experiments: 8 processes, unit-mean send gaps assumed by the
// workloads, message delays U[0.1, 1.0], basic checkpoints every ~10 time
// units.
func DefaultConfig(protocol core.Kind, seed int64) Config {
	return Config{
		N:         8,
		Protocol:  protocol,
		Seed:      seed,
		Duration:  1000,
		BasicMean: 10,
		DelayMin:  0.1,
		DelayMax:  1.0,
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	switch {
	case c.N < 2:
		return fmt.Errorf("config: need at least 2 processes, have %d", c.N)
	case c.Duration <= 0:
		return errors.New("config: duration must be positive")
	case c.BasicMean <= 0:
		return errors.New("config: basic checkpoint mean must be positive")
	case c.DelayMin < 0 || c.DelayMax < c.DelayMin:
		return errors.New("config: delays must satisfy 0 <= min <= max")
	}
	if _, err := core.ParseKind(c.Protocol.String()); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	return nil
}

// Workload drives the application-level communication of a run.
type Workload interface {
	// Name identifies the environment in reports.
	Name() string
	// Start schedules the workload's initial activity.
	Start(e *Engine)
	// OnWake runs a wake-up the workload scheduled with Engine.Wake.
	OnWake(e *Engine, proc, tag int)
	// OnDeliver is invoked after every message delivery, so request/reply
	// workloads can react.
	OnDeliver(e *Engine, d Delivery)
}

// Delivery describes a delivered application message.
type Delivery struct {
	From, To int
	Payload  any
}

// Result is the outcome of a run.
type Result struct {
	// Pattern is the recorded, finalized checkpoint and communication
	// pattern, annotated with the dependency vectors of every checkpoint.
	Pattern *model.Pattern
	// Stats summarizes the pattern.
	Stats model.Stats
	// Protocol and Workload identify the run.
	Protocol core.Kind
	Workload string
	// WireBytesPerMessage is the published protocol's piggyback size.
	WireBytesPerMessage int
}

// Run executes one simulation and returns its recorded pattern: it
// records the schedule and replays cfg.Protocol over it.
func Run(cfg Config, w Workload) (*Result, error) {
	s, err := Record(cfg, w)
	if err != nil {
		return nil, err
	}
	defer s.Release()
	return s.Run(cfg.Protocol, cfg.Monitor)
}

// Schedule is the protocol-independent part of a run: every send,
// arrival and basic-checkpoint attempt, in the order the engine executed
// them. A protocol adds forced checkpoints but never changes which
// messages are sent, when they arrive or when a basic checkpoint is
// attempted, so one schedule serves every protocol. A Schedule is never
// modified before its Release, so replays may run concurrently.
type Schedule struct {
	n        int
	workload string
	ops      []Op
	// slots is the number of in-flight slots the sends used, the size of
	// a replay's piggyback table.
	slots  int
	reg    *obs.Registry
	tracer *obs.Tracer
}

// OpKind selects what one step of a schedule does.
type OpKind uint8

const (
	OpSend   OpKind = iota + 1 // Proc sends to Peer; the message holds Slot until it arrives
	OpArrive                   // the message in Slot, from Peer, reaches Proc
	OpBasic                    // a basic-checkpoint attempt of Proc
)

// Op is one step of a schedule's tape; a basic attempt uses only Proc.
type Op struct {
	Kind       OpKind
	Proc, Peer int32
	Slot       int32
}

// Record simulates the schedule of a run: the workload, the event queue,
// the channel delays and the basic-checkpoint timers. It runs no
// protocol: cfg.Protocol and cfg.Monitor are left to the replays, and
// cfg.Obs and cfg.Tracer receive every replay's metrics and events.
// Release the schedule after its last replay, so a later Record reuses
// its memory.
//
// The recording is exact because nothing the engine does depends on the
// protocol: every random draw and every scheduled event is the same
// whichever protocol runs. The one protocol-dependent branch, skipping a
// basic-checkpoint attempt when its process had no event since its last
// checkpoint (basic or forced), draws nothing and schedules the next
// attempt either way, so the replay takes it.
func Record(cfg Config, w Workload) (*Schedule, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := schedules.Get().(*Schedule)
	e := newEngine(cfg, w, s.ops[:0])
	defer e.release()
	w.Start(e)
	for i := 0; i < cfg.N; i++ {
		e.scheduleBasic(i)
	}
	e.loop()
	*s = Schedule{
		n:        cfg.N,
		workload: w.Name(),
		ops:      e.ops,
		slots:    int(e.slots),
		reg:      cfg.Obs,
		tracer:   cfg.Tracer,
	}
	if e.err != nil {
		s.Release()
		return nil, e.err
	}
	return s, nil
}

// NewSchedule builds the schedule of n processes whose tape is ops,
// without the event engine. It copies ops, and Release recycles the copy
// as it does a recorded tape. The tape must hold what Record's tapes hold
// by construction, or NewSchedule refuses it: every process is in range
// and no process sends to itself; a slot, in [0, len(ops)), is taken
// again only after the arrival of the message holding it; an arrival
// comes from the sender of the message in its slot, to that message's
// receiver; and every send arrives.
func NewSchedule(n int, ops []Op) (*Schedule, error) {
	if n < 2 {
		return nil, fmt.Errorf("sim: schedule: need at least 2 processes, have %d", n)
	}
	// held[slot] is 1 + the index of the send holding slot, 0 when free.
	held := make([]int, len(ops))
	slots, inFlight := 0, 0
	for i, o := range ops {
		switch {
		case o.Kind < OpSend || o.Kind > OpBasic:
			return nil, fmt.Errorf("sim: schedule op %d: unknown kind %d", i, o.Kind)
		case o.Proc < 0 || int(o.Proc) >= n:
			return nil, fmt.Errorf("sim: schedule op %d: process %d out of range [0,%d)", i, o.Proc, n)
		case o.Kind == OpBasic:
			continue
		case o.Peer < 0 || int(o.Peer) >= n:
			return nil, fmt.Errorf("sim: schedule op %d: peer %d out of range [0,%d)", i, o.Peer, n)
		case o.Slot < 0 || int(o.Slot) >= len(ops):
			return nil, fmt.Errorf("sim: schedule op %d: slot %d out of range [0,%d)", i, o.Slot, len(ops))
		case o.Kind == OpSend && o.Peer == o.Proc:
			return nil, fmt.Errorf("sim: schedule op %d: P%d sends to itself", i, o.Proc)
		}
		h := &held[o.Slot]
		switch {
		case o.Kind == OpSend && *h != 0:
			return nil, fmt.Errorf("sim: schedule op %d: slot %d taken again before the arrival of op %d's message", i, o.Slot, *h-1)
		case o.Kind == OpSend:
			*h = i + 1
			slots = max(slots, int(o.Slot)+1)
			inFlight++
		case *h == 0:
			return nil, fmt.Errorf("sim: schedule op %d: arrival in empty slot %d", i, o.Slot)
		case ops[*h-1].Proc != o.Peer || ops[*h-1].Peer != o.Proc:
			return nil, fmt.Errorf("sim: schedule op %d: arrival P%d->P%d of op %d's message P%d->P%d", i, o.Peer, o.Proc, *h-1, ops[*h-1].Proc, ops[*h-1].Peer)
		default:
			*h = 0
			inFlight--
		}
	}
	if inFlight > 0 {
		return nil, fmt.Errorf("sim: schedule: %d sends never arrive", inFlight)
	}
	s := schedules.Get().(*Schedule)
	*s = Schedule{n: n, ops: append(s.ops[:0], ops...), slots: slots}
	return s, nil
}

// schedules recycles released schedules, tapes included.
var schedules = sync.Pool{New: func() any { return new(Schedule) }}

// Release hands the schedule's memory to a later Record or NewSchedule:
// it must not be replayed after it. Earlier replays' results stay valid.
func (s *Schedule) Release() {
	*s = Schedule{ops: s.ops[:0]}
	schedules.Put(s)
}

// Run replays the schedule with every process running the given
// protocol and returns the recorded pattern, as Run of the recorded
// configuration with that protocol and monitor would. The monitor's
// piggyback is lent for the call, as Config.Monitor says.
func (s *Schedule) Run(kind core.Kind, monitor func(inst core.Instance, from int, pb core.Piggyback)) (*Result, error) {
	r := newReplay(s, true)
	defer r.release()
	if err := r.run(s, kind, monitor); err != nil {
		return nil, err
	}
	pattern, err := r.builder.Finalize()
	if err != nil {
		return nil, fmt.Errorf("run %v/%s: %w", kind, s.workload, err)
	}
	return &Result{
		Pattern:             pattern,
		Stats:               pattern.Stats(),
		Protocol:            kind,
		Workload:            s.workload,
		WireBytesPerMessage: r.insts[0].WireSize(),
	}, nil
}

// Count replays the schedule as Run does, with the same protocol calls,
// monitor calls, metrics and trace events, but builds no pattern: it
// returns only the statistics of the pattern Run would return. The
// monitor's piggyback is lent for the call, as Config.Monitor says.
func (s *Schedule) Count(kind core.Kind, monitor func(inst core.Instance, from int, pb core.Piggyback)) (model.Stats, error) {
	r := newReplay(s, false)
	defer r.release()
	if err := r.run(s, kind, monitor); err != nil {
		return model.Stats{}, err
	}
	st := model.Stats{Processes: s.n, Messages: r.sent, Initial: s.n}
	for i, inst := range r.insts {
		st.Basic += inst.Basic()
		st.Forced += inst.Forced()
		if r.events[i] > 0 {
			st.Final++ // Finalize closes the interval
		}
	}
	return st, nil
}

// run replays the schedule into r, recording the pattern when r has a
// builder. This is the only place the protocol is called: at a send,
// its piggyback, written into the message's slot, and optional forced
// checkpoint; at an arrival, the monitor and then the protocol, both
// handed the slot's piggyback; at a basic-checkpoint attempt, the
// checkpoint unless the process had no event since its last one.
func (r *replay) run(s *Schedule, kind core.Kind, monitor func(inst core.Instance, from int, pb core.Piggyback)) error {
	sink := r.sink
	for i := 0; i < s.n; i++ {
		inst, err := core.New(kind, i, s.n, sink)
		if err != nil {
			return err
		}
		r.insts = append(r.insts, inst)
	}
	if s.reg != nil || s.tracer != nil {
		r.obs = newReplayObs(s.reg, s.tracer, kind)
	}
	r.shape(kind, s.n)
	b, tracer := r.builder, s.tracer
	for _, o := range s.ops {
		switch o.Kind {
		case OpSend:
			from, to := int(o.Proc), int(o.Peer)
			inst := r.insts[from]
			f := &r.flights[o.Slot]
			forceAfter := inst.SendInto(to, &f.pb)
			// Message ids are dense from 0, so the builder's handle is
			// the number of earlier sends.
			handle := r.sent
			r.sent++
			r.events[from]++
			if b != nil {
				b.Send(model.ProcID(from), model.ProcID(to))
			}
			if tracer != nil {
				tracer.Record(obs.Event{Type: obs.EventSend, Proc: from, Peer: to, Value: handle})
			}
			if forceAfter {
				inst.CheckpointAfterSend()
			}
			f.handle = handle
		case OpArrive:
			to, from := int(o.Proc), int(o.Peer)
			f := &r.flights[o.Slot]
			inst := r.insts[to]
			if monitor != nil {
				monitor(inst, from, f.pb)
			}
			inst.OnArrival(from, f.pb)
			r.events[to]++
			if b != nil {
				if err := b.Deliver(f.handle); err != nil {
					// Deliver can only fail on a corrupted handle, which
					// would be a bug of the schedule; surface it loudly.
					panic(fmt.Sprintf("sim: %v", err))
				}
			}
			if tracer != nil {
				tracer.Record(obs.Event{Type: obs.EventDeliver, Proc: to, Peer: from, Value: f.handle})
			}
		case OpBasic:
			if r.events[o.Proc] > 0 {
				r.insts[o.Proc].TakeBasicCheckpoint()
			}
		}
	}
	if o := r.obs; o != nil {
		// Every message sent has arrived: the schedule ends when its
		// queue is empty.
		o.messages.Add(int64(r.sent))
		o.deliveries.Add(int64(r.sent))
		o.flush()
	}
	return nil
}

// replay is the protocol side of one run: the instances, the builder
// recording the pattern, the events of every process since its last
// checkpoint, and the piggyback of every in-flight message by slot.
type replay struct {
	builder *model.Builder // nil when the replay only counts
	insts   []core.Instance
	events  []int // sends and deliveries per process since its last checkpoint
	sent    int   // messages sent so far
	// flights is the in-flight table: a send writes its sender's state
	// into its slot's piggyback with SendInto, and the arrival lends that
	// piggyback to the monitor and the protocol. A slot's buffers serve
	// one message after another, which is safe because no schedule takes
	// a slot again before the arrival of the message holding it.
	flights []flight
	// The buffers of the slots' piggybacks, slot i owning the i-th piece
	// of each: its vector, causal matrix header and words, and simple
	// array.
	tdvs   []int
	mats   []vclock.Matrix
	words  []uint64
	simple []bool
	obs    *replayObs // nil when observability is off
}

// flight is a message in transit: its builder handle and its piggyback,
// whose buffers belong to the replay.
type flight struct {
	handle int
	pb     core.Piggyback
}

// replays recycles replay state across runs: the piggyback table and
// the counters serve the next run.
var replays sync.Pool

// builders recycles the builders of Run's replays. Their buffers serve
// the next run, since Finalize copies what it returns and the builder's
// vector chunk hands each piece out once.
var builders sync.Pool

func newReplay(s *Schedule, build bool) *replay {
	r, _ := replays.Get().(*replay)
	if r == nil {
		r = &replay{}
	}
	if build {
		if b, _ := builders.Get().(*model.Builder); b != nil {
			b.Reset(s.n)
			r.builder = b
		} else {
			r.builder = model.NewBuilder(s.n)
		}
	}
	r.events = append(r.events[:0], make([]int, s.n)...)
	r.flights = resize(r.flights, s.slots)
	return r
}

// shape points the piggyback of every slot at the slot's buffers, with
// the fields protocol kind carries, growing the buffers to n processes.
func (r *replay) shape(kind core.Kind, n int) {
	simple, causal := kind.Carries()
	slots, w := len(r.flights), vclock.MatrixWords(n)
	r.tdvs = resize(r.tdvs, slots*n)
	if simple {
		r.simple = resize(r.simple, slots*n)
	}
	if causal {
		r.mats, r.words = resize(r.mats, slots), resize(r.words, slots*w)
	}
	for i := range r.flights {
		pb := core.Piggyback{TDV: r.tdvs[i*n : (i+1)*n : (i+1)*n]}
		if simple {
			pb.Simple = r.simple[i*n : (i+1)*n : (i+1)*n]
		}
		if causal {
			pb.Causal = r.mats[i].Bind(n, r.words[i*w:(i+1)*w])
		}
		r.flights[i].pb = pb
	}
}

// resize returns s with length n, reallocated only when its capacity is
// short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// release drops the run's references and returns the state to the pools.
// The slots' piggybacks point only at the replay's own buffers, so they
// stay.
func (r *replay) release() {
	if r.builder != nil {
		builders.Put(r.builder)
	}
	clear(r.insts)
	r.builder, r.insts, r.sent, r.obs = nil, r.insts[:0], 0, nil
	replays.Put(r)
}

// sink records protocol checkpoints into the trace and tallies them for
// the metrics. Initial checkpoints are pre-recorded by the builder and
// skipped here (their dependency vector is trivially all-zero). The
// record's vector is lent for the call, so the builder copies it.
func (r *replay) sink(rec core.CheckpointRecord) {
	if rec.Kind == model.KindInitial {
		return
	}
	r.events[rec.Proc] = 0
	if b := r.builder; b != nil {
		b.Checkpoint(model.ProcID(rec.Proc), rec.Kind, rec.TDV)
	}
	o := r.obs
	if o == nil {
		return
	}
	switch rec.Kind {
	case model.KindBasic:
		o.basicN++
		if o.tracer != nil {
			o.tracer.Record(obs.Event{Type: obs.EventBasicCheckpoint, Proc: rec.Proc, Value: rec.Index})
		}
	case model.KindForced:
		o.tally(rec.Predicate)
		if o.tracer != nil {
			o.tracer.Record(obs.Event{
				Type:      obs.EventForcedCheckpoint,
				Proc:      rec.Proc,
				Predicate: rec.Predicate,
				Value:     rec.Index,
			})
		}
	}
}

// replayObs bundles the pre-created series of one replay, labeled by
// protocol so sweeps over several protocols share a registry, and the
// replay's checkpoint tallies. Concurrent replays share the series, so a
// replay counts into plain tallies and adds them to the series once, in
// flush.
type replayObs struct {
	reg    *obs.Registry
	tracer *obs.Tracer
	proto  string

	messages   *obs.Counter
	deliveries *obs.Counter
	basic      *obs.Counter
	forced     *obs.Counter

	basicN int64
	// forcedBy tallies the forced checkpoints per predicate. A protocol
	// fires at most a handful of predicates, so a linear scan finds one.
	forcedBy []predicateTally
}

type predicateTally struct {
	predicate string
	n         int64
}

func newReplayObs(reg *obs.Registry, tr *obs.Tracer, protocol core.Kind) *replayObs {
	proto := protocol.String()
	return &replayObs{
		reg:        reg,
		tracer:     tr,
		proto:      proto,
		messages:   reg.Counter("rdt_sim_messages_total", "protocol", proto),
		deliveries: reg.Counter("rdt_sim_deliveries_total", "protocol", proto),
		basic:      reg.Counter("rdt_checkpoints_total", "protocol", proto, "kind", "basic"),
		forced:     reg.Counter("rdt_checkpoints_total", "protocol", proto, "kind", "forced"),
	}
}

// tally counts one forced checkpoint of predicate.
func (o *replayObs) tally(predicate string) {
	for i := range o.forcedBy {
		if o.forcedBy[i].predicate == predicate {
			o.forcedBy[i].n++
			return
		}
	}
	o.forcedBy = append(o.forcedBy, predicateTally{predicate: predicate, n: 1})
}

// flush adds the replay's checkpoint tallies to their series:
// rdt_checkpoints_total by kind and rdt_forced_checkpoints_total by
// predicate. The registry is asked for a predicate's series only here,
// so a checkpoint formats no series key and takes no registry lock.
func (o *replayObs) flush() {
	o.basic.Add(o.basicN)
	var forced int64
	for _, t := range o.forcedBy {
		o.reg.Counter("rdt_forced_checkpoints_total", "protocol", o.proto, "predicate", t.predicate).Add(t.n)
		forced += t.n
	}
	o.forced.Add(forced)
}

// Engine is the event loop handed to workloads. It records the schedule
// of one run and calls no protocol. It is valid only during the
// recording it is handed to: Record recycles it for later ones.
type Engine struct {
	cfg Config
	rng *rand.Rand
	now float64
	q   eventQueue
	w   Workload

	ops   []Op    // the schedule recorded so far
	free  []int32 // in-flight slots released by arrivals
	slots int32   // in-flight slots ever taken
	// err is the workload's first illegal send, which fails the
	// recording.
	err error
}

// engines recycles engines across recordings: a recording's event slab
// and slot list serve the next one.
var engines sync.Pool

// newEngine takes an engine from the pool for a recording that appends to
// the tape ops.
func newEngine(cfg Config, w Workload, ops []Op) *Engine {
	e, _ := engines.Get().(*Engine)
	if e == nil {
		e = &Engine{rng: rand.New(rand.NewSource(cfg.Seed))}
	} else {
		e.rng.Seed(cfg.Seed)
	}
	e.cfg, e.w, e.now, e.ops = cfg, w, 0, ops
	e.q.reset()
	e.free, e.slots, e.err = e.free[:0], 0, nil
	return e
}

// release drops the recording's references and returns the engine to the
// pool.
func (e *Engine) release() {
	e.cfg, e.w, e.ops = Config{}, nil, nil
	engines.Put(e)
}

// N returns the number of processes.
func (e *Engine) N() int { return e.cfg.N }

// Now returns the current simulated time.
func (e *Engine) Now() float64 { return e.now }

// Active reports whether the run is still within its time horizon;
// workloads must not initiate new activity once it returns false.
func (e *Engine) Active() bool { return e.now <= e.cfg.Duration }

// Rand returns the run's random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Uniform draws from U[min, max].
func (e *Engine) Uniform(min, max float64) float64 {
	return min + e.rng.Float64()*(max-min)
}

// Exp draws from an exponential distribution with the given mean.
func (e *Engine) Exp(mean float64) float64 {
	return -mean * math.Log(1-e.rng.Float64())
}

// loop runs the scheduled events in (time, scheduling) order until none
// is left.
func (e *Engine) loop() {
	for e.q.len() > 0 {
		at, item := e.q.pop()
		e.now = at
		// Each case reads the item's fields before its action schedules
		// anything, which may reuse the slot.
		switch item.kind {
		case itemArrive:
			e.arrive(int32(item.handle), item.from, item.to, item.payload)
		case itemBasic:
			e.basicTick(item.from)
		case itemWake:
			e.w.OnWake(e, item.from, item.handle)
		}
	}
}

// Wake schedules a call of the workload's OnWake(e, proc, tag) after the
// given delay. Wake-ups at the same instant run in the order they were
// scheduled, interleaved with the engine's own events by the same rule.
func (e *Engine) Wake(delay float64, proc, tag int) {
	item := e.q.push(e.now + delay)
	item.kind, item.from, item.handle = itemWake, proc, tag
}

// Send emits an application message from one process to another: the
// send is recorded with an in-flight slot, and the arrival is scheduled
// after a random channel delay.
func (e *Engine) Send(from, to int, payload any) {
	if from == to && e.err == nil {
		e.err = fmt.Errorf("sim: %s sent a message from P%d to itself", e.w.Name(), from)
	}
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		slot = e.slots
		e.slots++
	}
	e.ops = append(e.ops, Op{Kind: OpSend, Proc: int32(from), Peer: int32(to), Slot: slot})
	delay := e.Uniform(e.cfg.DelayMin, e.cfg.DelayMax)
	item := e.q.push(e.now + delay)
	item.kind, item.handle, item.from, item.to = itemArrive, int(slot), from, to
	item.payload = payload
}

// arrive records the arrival of the message in slot, releases the slot
// and hands the message to the workload.
func (e *Engine) arrive(slot int32, from, to int, payload any) {
	e.ops = append(e.ops, Op{Kind: OpArrive, Proc: int32(to), Peer: int32(from), Slot: slot})
	e.free = append(e.free, slot)
	e.w.OnDeliver(e, Delivery{From: from, To: to, Payload: payload})
}

func (e *Engine) scheduleBasic(proc int) {
	gap := e.Uniform(e.cfg.BasicMean*(1-basicSpread), e.cfg.BasicMean*(1+basicSpread))
	item := e.q.push(e.now + gap)
	item.kind, item.from = itemBasic, proc
}

// basicTick is one basic-checkpoint attempt of a process. Whether the
// attempt is skipped depends on the protocol's forced checkpoints, so
// the replay decides it.
func (e *Engine) basicTick(proc int) {
	if !e.Active() {
		return
	}
	e.ops = append(e.ops, Op{Kind: OpBasic, Proc: int32(proc)})
	e.scheduleBasic(proc)
}
