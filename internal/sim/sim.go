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
	"container/heap"
	"errors"
	"fmt"
	"math"
	"math/rand"

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
	// between basic-checkpoint attempts; BasicSpread is its half-width
	// relative to the mean (0.5 means U[0.5·mean, 1.5·mean]).
	BasicMean   float64
	BasicSpread float64
	// KeepEmptyBasic makes processes take a basic checkpoint even when no
	// event occurred since their last checkpoint. By default such
	// redundant checkpoints are skipped.
	KeepEmptyBasic bool

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

// DefaultConfig returns a configuration with the baseline parameters used
// by the experiments: 8 processes, unit-mean send gaps assumed by the
// workloads, message delays U[0.1, 1.0], basic checkpoints every ~10 time
// units.
func DefaultConfig(protocol core.Kind, seed int64) Config {
	return Config{
		N:           8,
		Protocol:    protocol,
		Seed:        seed,
		Duration:    1000,
		BasicMean:   10,
		BasicSpread: 0.5,
		DelayMin:    0.1,
		DelayMax:    1.0,
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
	case c.BasicSpread < 0 || c.BasicSpread >= 1:
		return errors.New("config: basic spread must be in [0,1)")
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
	e := &Engine{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		builder: model.NewBuilder(cfg.N),
		w:       w,
	}
	if cfg.Obs != nil || cfg.Tracer != nil {
		e.obs = newEngineObs(cfg.Obs, cfg.Tracer, cfg.Protocol)
	}
	e.insts = make([]core.Instance, cfg.N)
	for i := 0; i < cfg.N; i++ {
		inst, err := core.New(cfg.Protocol, i, cfg.N, e.sink)
		if err != nil {
			return nil, err
		}
		e.insts[i] = inst
	}
	w.Start(e)
	for i := 0; i < cfg.N; i++ {
		e.scheduleBasic(i)
	}
	for e.pq.Len() > 0 {
		item := heap.Pop(&e.pq).(*eventItem)
		e.now = item.at
		e.dispatch(item)
	}
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

// Engine is the event loop handed to workloads.
type Engine struct {
	cfg     Config
	rng     *rand.Rand
	now     float64
	seq     int64
	pq      eventHeap
	free    []*eventItem // recycled event items (hot-path scratch)
	builder *model.Builder
	insts   []core.Instance
	w       Workload
	obs     *engineObs // nil when observability is off
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

// newItem takes an event item from the freelist (or allocates one) and
// stamps its time and tie-breaking sequence number.
func (e *Engine) newItem(at float64) *eventItem {
	var item *eventItem
	if n := len(e.free); n > 0 {
		item = e.free[n-1]
		e.free = e.free[:n-1]
		*item = eventItem{}
	} else {
		item = &eventItem{}
	}
	e.seq++
	item.at, item.seq = at, e.seq
	return item
}

// dispatch runs a popped event and recycles its item. The item's fields
// are read before the action runs, so the action can freely schedule new
// events (which may reuse the item).
func (e *Engine) dispatch(item *eventItem) {
	kind, fn := item.kind, item.fn
	handle, from, to := item.handle, item.from, item.to
	pb, payload := item.pb, item.payload
	item.fn, item.pb, item.payload = nil, core.Piggyback{}, nil
	e.free = append(e.free, item)
	switch kind {
	case itemFn:
		fn()
	case itemArrive:
		e.arrive(handle, from, to, pb, payload)
	case itemBasic:
		e.basicTick(from)
	}
}

// At schedules fn to run after the given delay.
func (e *Engine) At(delay float64, fn func()) {
	item := e.newItem(e.now + delay)
	item.kind = itemFn
	item.fn = fn
	heap.Push(&e.pq, item)
}

// Send emits an application message from one process to another: the
// protocol contributes its piggyback, the send is recorded, and the
// arrival is scheduled after a random channel delay.
func (e *Engine) Send(from, to int, payload any) {
	inst := e.insts[from]
	pb, forceAfter := inst.OnSend(to)
	handle := e.builder.Send(model.ProcID(from), model.ProcID(to))
	if e.obs != nil {
		e.obs.messages.Inc()
		e.obs.tracer.Record(obs.Event{
			Type: obs.EventSend, Proc: from, Peer: to, Value: handle,
		})
	}
	if forceAfter {
		inst.CheckpointAfterSend()
	}
	delay := e.Uniform(e.cfg.DelayMin, e.cfg.DelayMax)
	// The arrival is a typed event rather than a closure: with one message
	// per event this is the hottest allocation site of a run.
	item := e.newItem(e.now + delay)
	item.kind = itemArrive
	item.handle, item.from, item.to = handle, from, to
	item.pb, item.payload = pb, payload
	heap.Push(&e.pq, item)
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
	if e.obs != nil {
		e.obs.deliveries.Inc()
		e.obs.tracer.Record(obs.Event{
			Type: obs.EventDeliver, Proc: to, Peer: from, Value: handle,
		})
	}
	e.w.OnDeliver(e, Delivery{From: from, To: to, Payload: payload})
}

// sink records protocol checkpoints into the trace. Initial checkpoints
// are pre-recorded by the builder and skipped here (their dependency
// vector is trivially all-zero).
func (e *Engine) sink(rec core.CheckpointRecord) {
	if rec.Kind == model.KindInitial {
		return
	}
	e.builder.Checkpoint(model.ProcID(rec.Proc), rec.Kind, rec.TDV)
	if e.obs == nil {
		return
	}
	switch rec.Kind {
	case model.KindBasic:
		e.obs.basic.Inc()
		e.obs.tracer.Record(obs.Event{
			Type: obs.EventBasicCheckpoint, Proc: rec.Proc, Value: rec.Index,
		})
	case model.KindForced:
		e.obs.forced.Inc()
		e.obs.forcedBy(rec.Predicate).Inc()
		e.obs.tracer.Record(obs.Event{
			Type:      obs.EventForcedCheckpoint,
			Proc:      rec.Proc,
			Predicate: rec.Predicate,
			Value:     rec.Index,
		})
	}
}

func (e *Engine) scheduleBasic(proc int) {
	gap := e.Uniform(e.cfg.BasicMean*(1-e.cfg.BasicSpread), e.cfg.BasicMean*(1+e.cfg.BasicSpread))
	item := e.newItem(e.now + gap)
	item.kind = itemBasic
	item.from = proc
	heap.Push(&e.pq, item)
}

// basicTick is one basic-checkpoint attempt of a process.
func (e *Engine) basicTick(proc int) {
	if !e.Active() {
		return
	}
	if e.cfg.KeepEmptyBasic || e.builder.EventsSinceCheckpoint(model.ProcID(proc)) > 0 {
		e.insts[proc].TakeBasicCheckpoint()
	}
	e.scheduleBasic(proc)
}

// itemKind selects the action of a scheduled event. Message arrivals and
// basic-checkpoint ticks — the two per-event hot paths — are typed so
// they need no closure allocation; everything a workload schedules via At
// remains a generic function event.
type itemKind int8

const (
	itemFn itemKind = iota
	itemArrive
	itemBasic
)

// eventItem is one scheduled action; seq breaks time ties deterministically.
type eventItem struct {
	at   float64
	seq  int64
	kind itemKind
	fn   func() // itemFn

	// itemArrive payload (from doubles as the process of an itemBasic).
	handle, from, to int
	pb               core.Piggyback
	payload          any
}

type eventHeap []*eventItem

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(a, b int) bool {
	if h[a].at != h[b].at {
		return h[a].at < h[b].at
	}
	return h[a].seq < h[b].seq
}
func (h eventHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*eventItem)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	item := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return item
}
