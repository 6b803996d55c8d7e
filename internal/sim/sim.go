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
// experiments and the property-based tests reproducible.
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
	// tests.
	Monitor func(inst core.Instance, from int, pb core.Piggyback)

	// Obs, if non-nil, receives the run's metrics (messages, deliveries,
	// per-predicate forced checkpoints), labeled by protocol so
	// comparison sweeps share one registry. It does not perturb the
	// simulation's determinism.
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

// Run executes one simulation and returns its recorded pattern.
func Run(cfg Config, w Workload) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := newEngine(cfg, w)
	defer e.release()
	sink := e.sink
	for i := 0; i < cfg.N; i++ {
		inst, err := core.New(cfg.Protocol, i, cfg.N, sink)
		if err != nil {
			return nil, err
		}
		e.insts = append(e.insts, inst)
	}
	w.Start(e)
	for i := 0; i < cfg.N; i++ {
		e.scheduleBasic(i)
	}
	e.loop()
	pattern, err := e.builder.Finalize()
	if err != nil {
		return nil, fmt.Errorf("run %v/%s: %w", cfg.Protocol, w.Name(), err)
	}
	return &Result{
		Pattern:             pattern,
		Stats:               pattern.Stats(),
		Protocol:            cfg.Protocol,
		Workload:            w.Name(),
		WireBytesPerMessage: e.insts[0].WireSize(),
	}, nil
}

// Engine is the event loop handed to workloads. It is valid only during
// the run it is handed to: Run recycles it for later runs.
type Engine struct {
	cfg     Config
	rng     *rand.Rand
	now     float64
	q       eventQueue
	builder *model.Builder
	insts   []core.Instance
	w       Workload
	obs     *engineObs // nil when observability is off
}

// engines recycles engines across runs: a run's event slab and builder
// buffers serve the next one, since Finalize copies what it returns.
var engines sync.Pool

func newEngine(cfg Config, w Workload) *Engine {
	e, _ := engines.Get().(*Engine)
	if e == nil {
		e = &Engine{rng: rand.New(rand.NewSource(cfg.Seed)), builder: model.NewBuilder(cfg.N)}
	} else {
		e.rng.Seed(cfg.Seed)
		e.builder.Reset(cfg.N)
	}
	e.cfg, e.w, e.now = cfg, w, 0
	e.q.reset()
	if cfg.Obs != nil || cfg.Tracer != nil {
		e.obs = newEngineObs(cfg.Obs, cfg.Tracer, cfg.Protocol)
	}
	return e
}

// release drops the run's references and returns the engine to the pool.
func (e *Engine) release() {
	clear(e.insts)
	e.insts = e.insts[:0]
	e.cfg, e.w, e.obs = Config{}, nil, nil
	engines.Put(e)
}

// engineObs bundles the pre-created series of one run, labeled by
// protocol so sweeps over several protocols share a registry.
type engineObs struct {
	reg    *obs.Registry
	tracer *obs.Tracer
	proto  string

	messages   *obs.Counter
	deliveries *obs.Counter
	basic      *obs.Counter
	forced     *obs.Counter
	// byPredicate caches rdt_forced_checkpoints_total{protocol,predicate}
	// per predicate. The engine is single-threaded, so a plain map does.
	byPredicate map[string]*obs.Counter
}

func newEngineObs(reg *obs.Registry, tr *obs.Tracer, protocol core.Kind) *engineObs {
	proto := protocol.String()
	return &engineObs{
		reg:         reg,
		tracer:      tr,
		proto:       proto,
		messages:    reg.Counter("rdt_sim_messages_total", "protocol", proto),
		deliveries:  reg.Counter("rdt_sim_deliveries_total", "protocol", proto),
		basic:       reg.Counter("rdt_checkpoints_total", "protocol", proto, "kind", "basic"),
		forced:      reg.Counter("rdt_checkpoints_total", "protocol", proto, "kind", "forced"),
		byPredicate: make(map[string]*obs.Counter),
	}
}

// forcedBy returns the forced-checkpoint series of one predicate. The
// registry is asked the first time the predicate fires; after that a
// forced checkpoint formats no series key and takes no registry lock.
func (o *engineObs) forcedBy(predicate string) *obs.Counter {
	c, ok := o.byPredicate[predicate]
	if !ok {
		c = o.reg.Counter("rdt_forced_checkpoints_total", "protocol", o.proto, "predicate", predicate)
		o.byPredicate[predicate] = c
	}
	return c
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
			e.arrive(item.handle, item.from, item.to, item.pb, item.payload)
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
// protocol contributes its piggyback, the send is recorded, and the
// arrival is scheduled after a random channel delay.
func (e *Engine) Send(from, to int, payload any) {
	inst := e.insts[from]
	pb, forceAfter := inst.OnSend(to)
	handle := e.builder.Send(model.ProcID(from), model.ProcID(to))
	if o := e.obs; o != nil {
		o.messages.Inc()
		if o.tracer != nil {
			o.tracer.Record(obs.Event{Type: obs.EventSend, Proc: from, Peer: to, Value: handle})
		}
	}
	if forceAfter {
		inst.CheckpointAfterSend()
	}
	delay := e.Uniform(e.cfg.DelayMin, e.cfg.DelayMax)
	item := e.q.push(e.now + delay)
	item.kind, item.handle, item.from, item.to = itemArrive, handle, from, to
	item.pb, item.payload = pb, payload
}

func (e *Engine) arrive(handle, from, to int, pb core.Piggyback, payload any) {
	inst := e.insts[to]
	if e.cfg.Monitor != nil {
		e.cfg.Monitor(inst, from, pb)
	}
	inst.OnArrival(from, pb)
	if err := e.builder.Deliver(handle); err != nil {
		// Deliver can only fail on a corrupted handle, which would be an
		// engine bug; surface it loudly during development.
		panic(fmt.Sprintf("sim: %v", err))
	}
	if o := e.obs; o != nil {
		o.deliveries.Inc()
		if o.tracer != nil {
			o.tracer.Record(obs.Event{Type: obs.EventDeliver, Proc: to, Peer: from, Value: handle})
		}
	}
	e.w.OnDeliver(e, Delivery{From: from, To: to, Payload: payload})
}

// sink records protocol checkpoints into the trace. Initial checkpoints
// are pre-recorded by the builder and skipped here (their dependency
// vector is trivially all-zero). The record's vector is a copy the
// protocol made for the sink, so the builder keeps it as it is.
func (e *Engine) sink(rec core.CheckpointRecord) {
	if rec.Kind == model.KindInitial {
		return
	}
	e.builder.CheckpointOwned(model.ProcID(rec.Proc), rec.Kind, rec.TDV)
	o := e.obs
	if o == nil {
		return
	}
	switch rec.Kind {
	case model.KindBasic:
		o.basic.Inc()
		if o.tracer != nil {
			o.tracer.Record(obs.Event{Type: obs.EventBasicCheckpoint, Proc: rec.Proc, Value: rec.Index})
		}
	case model.KindForced:
		o.forced.Inc()
		o.forcedBy(rec.Predicate).Inc()
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

func (e *Engine) scheduleBasic(proc int) {
	gap := e.Uniform(e.cfg.BasicMean*(1-basicSpread), e.cfg.BasicMean*(1+basicSpread))
	item := e.q.push(e.now + gap)
	item.kind, item.from = itemBasic, proc
}

// basicTick is one basic-checkpoint attempt of a process.
func (e *Engine) basicTick(proc int) {
	if !e.Active() {
		return
	}
	if e.builder.EventsSinceCheckpoint(model.ProcID(proc)) > 0 {
		e.insts[proc].TakeBasicCheckpoint()
	}
	e.scheduleBasic(proc)
}
