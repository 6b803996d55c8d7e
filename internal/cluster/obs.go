package cluster

import (
	"strconv"
	"sync"

	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/obs"
)

// instruments bundles the cluster's pre-created observability series so
// the hot paths never take the registry lock. A nil *instruments means
// observability is off; every use is guarded by one nil check, and the
// individual series are themselves nil-safe.
type instruments struct {
	reg    *obs.Registry
	tracer *obs.Tracer
	proto  string

	sends          *obs.Counter
	deliveries     *obs.Counter
	piggybackBytes *obs.Counter
	basic          *obs.Counter
	forced         *obs.Counter
	storeErrors    *obs.Counter
	crashes        *obs.Counter
	restarts       *obs.Counter
	recoveries     *obs.Counter

	// deliveryLatency is the mailbox wait: frame arrival at the node to
	// execution in the node goroutine.
	deliveryLatency *obs.Histogram
	quiesceWait     *obs.Histogram

	// forcedBy caches rdt_forced_checkpoints_total{protocol,predicate}:
	// predicate string -> *obs.Counter. Node goroutines record
	// concurrently, and CBR or NRAS force on nearly every arrival, so the
	// registry is asked once per predicate, not once per checkpoint.
	forcedBy sync.Map
}

// newInstruments creates the cluster's series. reg and tr may each be
// nil (the corresponding series are nil and no-op).
func newInstruments(reg *obs.Registry, tr *obs.Tracer, protocol core.Kind) *instruments {
	proto := protocol.String()
	return &instruments{
		reg:             reg,
		tracer:          tr,
		proto:           proto,
		sends:           reg.Counter("rdt_cluster_sends_total", "protocol", proto),
		deliveries:      reg.Counter("rdt_cluster_deliveries_total", "protocol", proto),
		piggybackBytes:  reg.Counter("rdt_cluster_piggyback_bytes_total", "protocol", proto),
		basic:           reg.Counter("rdt_checkpoints_total", "protocol", proto, "kind", "basic"),
		forced:          reg.Counter("rdt_checkpoints_total", "protocol", proto, "kind", "forced"),
		storeErrors:     reg.Counter("rdt_store_errors_total", "protocol", proto),
		crashes:         reg.Counter("rdt_cluster_crashes_total", "protocol", proto),
		restarts:        reg.Counter("rdt_cluster_restarts_total", "protocol", proto),
		recoveries:      reg.Counter("rdt_recoveries_e2e_total", "protocol", proto),
		deliveryLatency: reg.Histogram("rdt_cluster_delivery_latency_seconds", obs.LatencyBuckets, "protocol", proto),
		quiesceWait:     reg.Histogram("rdt_cluster_quiesce_wait_seconds", obs.LatencyBuckets, "protocol", proto),
	}
}

// storeError accounts for one failed checkpoint persist.
func (ins *instruments) storeError(proc int, err error) {
	if ins == nil {
		return
	}
	ins.storeErrors.Inc()
	ins.tracer.Record(obs.Event{
		Type: obs.EventStoreError, Proc: proc, Detail: err.Error(),
	})
}

// crash accounts for one fail-stop; droppedOps is the discarded backlog.
func (ins *instruments) crash(proc, droppedOps int) {
	if ins == nil {
		return
	}
	ins.crashes.Inc()
	ins.tracer.Record(obs.Event{
		Type: obs.EventCrash, Proc: proc, Value: droppedOps,
	})
}

// restart accounts for one crashed process coming back.
func (ins *instruments) restart(proc int) {
	if ins == nil {
		return
	}
	ins.restarts.Inc()
	ins.tracer.Record(obs.Event{Type: obs.EventRestart, Proc: proc})
}

// recovery accounts for one completed end-to-end recovery; replayed is
// the number of messages re-injected.
func (ins *instruments) recovery(replayed int) {
	if ins == nil {
		return
	}
	ins.recoveries.Inc()
	ins.tracer.Record(obs.Event{Type: obs.EventRecovery, Value: replayed})
}

// queueDepth returns the mailbox-depth gauge of one node.
func (ins *instruments) queueDepth(proc int) *obs.Gauge {
	if ins == nil {
		return nil
	}
	return ins.reg.Gauge("rdt_cluster_queue_depth", "proc", strconv.Itoa(proc))
}

// checkpoint accounts for one recorded checkpoint, attributing forced
// ones to the predicate that fired them. Initial checkpoints are not
// counted (they are part of the model, not of the overhead).
func (ins *instruments) checkpoint(rec core.CheckpointRecord) {
	if ins == nil {
		return
	}
	switch rec.Kind {
	case model.KindBasic:
		ins.basic.Inc()
		ins.tracer.Record(obs.Event{
			Type:  obs.EventBasicCheckpoint,
			Proc:  rec.Proc,
			Value: rec.Index,
		})
	case model.KindForced:
		ins.forced.Inc()
		ins.forcedPredicate(rec.Predicate).Inc()
		ins.tracer.Record(obs.Event{
			Type:      obs.EventForcedCheckpoint,
			Proc:      rec.Proc,
			Predicate: rec.Predicate,
			Value:     rec.Index,
		})
	}
}

// forcedPredicate returns the forced-checkpoint series of one predicate,
// asking the registry the first time the predicate fires. Two nodes
// racing on a first sight both get the registry's one instrument.
func (ins *instruments) forcedPredicate(predicate string) *obs.Counter {
	if c, ok := ins.forcedBy.Load(predicate); ok {
		return c.(*obs.Counter)
	}
	c := ins.reg.Counter("rdt_forced_checkpoints_total", "protocol", ins.proto, "predicate", predicate)
	ins.forcedBy.Store(predicate, c)
	return c
}
