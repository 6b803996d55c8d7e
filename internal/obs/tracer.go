package obs

import (
	"encoding/json"
	"fmt"
	"sync"
)

// EventType classifies a structured trace event.
type EventType uint8

// The event types recorded by the runtime and the protocol family.
const (
	// EventSend is an application message send (Proc → Peer).
	EventSend EventType = iota + 1
	// EventDeliver is an application message delivery (Peer → Proc).
	EventDeliver
	// EventBasicCheckpoint is an application-initiated checkpoint.
	EventBasicCheckpoint
	// EventForcedCheckpoint is a protocol-forced checkpoint; Predicate
	// names the visible condition that fired.
	EventForcedCheckpoint
	// EventRollback is one process rolling back during recovery; Value
	// is the number of checkpoint intervals lost.
	EventRollback
	// EventSendError is a transport-level send failure; Detail carries
	// the error text.
	EventSendError
	// EventFault is an injected transport fault; Detail names the kind
	// (drop, duplicate, reorder, delay, send-error, partition).
	EventFault
	// EventRetry is a reliable-transport retransmission (Proc → Peer);
	// Value is the attempt number.
	EventRetry
	// EventGiveUp is a frame the reliable transport abandoned after
	// exhausting its retries.
	EventGiveUp
	// EventCrash is a process fail-stop (Node.Crash).
	EventCrash
	// EventRestart is a crashed process resuming (Cluster.Restart).
	EventRestart
	// EventRecovery is one end-to-end crash recovery (Cluster.Recover);
	// Value is the number of replayed in-transit messages.
	EventRecovery
	// EventStoreError is a checkpoint-store write failure; Detail
	// carries the error text.
	EventStoreError
	// EventSuspicion is a supervisor suspecting a process of having
	// failed; Detail names the reason (crash, timeout, unreachable) and
	// Value carries the observed heartbeat gap in microseconds.
	EventSuspicion
	// EventEscalation is a supervisor giving up on autonomous recovery
	// after exhausting its attempts; Detail carries the last error.
	EventEscalation
	// EventQuarantine is a corrupt stored checkpoint moved aside during
	// recovery-line computation; Value is the quarantined index.
	EventQuarantine
	// EventViolation is an untrackable rollback dependency detected by
	// the on-line checker: Proc/Value name the checkpoint rolled back
	// past (the R-path source) and Detail renders the full pair.
	EventViolation
)

// String returns the event type's wire name.
func (t EventType) String() string {
	switch t {
	case EventSend:
		return "send"
	case EventDeliver:
		return "deliver"
	case EventBasicCheckpoint:
		return "basic-checkpoint"
	case EventForcedCheckpoint:
		return "forced-checkpoint"
	case EventRollback:
		return "rollback"
	case EventSendError:
		return "send-error"
	case EventFault:
		return "fault"
	case EventRetry:
		return "retry"
	case EventGiveUp:
		return "give-up"
	case EventCrash:
		return "crash"
	case EventRestart:
		return "restart"
	case EventRecovery:
		return "recovery"
	case EventStoreError:
		return "store-error"
	case EventSuspicion:
		return "suspicion"
	case EventEscalation:
		return "escalation"
	case EventQuarantine:
		return "quarantine"
	case EventViolation:
		return "violation"
	default:
		return fmt.Sprintf("event(%d)", uint8(t))
	}
}

// MarshalJSON encodes the type as its string name.
func (t EventType) MarshalJSON() ([]byte, error) { return json.Marshal(t.String()) }

// UnmarshalJSON decodes a string name back into the type.
func (t *EventType) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	for ev := EventSend; ev <= EventViolation; ev++ {
		if ev.String() == name {
			*t = ev
			return nil
		}
	}
	return fmt.Errorf("obs: unknown event type %q", name)
}

// Event is one structured trace record. Seq is a logical timestamp
// assigned by the tracer: it increases by one per recorded event and
// never repeats, so gaps in a tail reveal overwritten history.
type Event struct {
	Seq       uint64    `json:"seq"`
	Type      EventType `json:"type"`
	Proc      int       `json:"proc"`
	Peer      int       `json:"peer,omitempty"`
	Predicate string    `json:"predicate,omitempty"`
	Detail    string    `json:"detail,omitempty"`
	Value     int       `json:"value,omitempty"`
	// Target is a second index next to Value (a violation's target
	// checkpoint), read only by Format.
	Target int `json:"-"`
	// Format, when set, renders Detail from the other fields when the
	// event is read: Tail fills Detail with it and returns the event
	// without it. A hot path records fields and leaves the text to
	// whoever reads the ring — most events are overwritten unread.
	Format func(Event) string `json:"-"`
}

// Tracer is a bounded ring buffer of events. When full, new events
// overwrite the oldest; the loss is counted, not silent — Dropped
// reports how many events were overwritten, and ObserveDrops mirrors
// the count into a registry counter. All methods are safe for
// concurrent use and safe on a nil receiver (no-ops).
type Tracer struct {
	mu      sync.Mutex
	seq     uint64
	buf     []Event
	next    int  // slot the next event goes into
	full    bool // the ring has wrapped at least once
	dropped uint64
	drops   *Counter
}

// DefaultTracerCapacity is the ring size used by the cmd tools.
const DefaultTracerCapacity = 8192

// NewTracer returns a tracer retaining the last capacity events
// (minimum 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{buf: make([]Event, capacity)}
}

// Record appends an event, assigning its logical timestamp. The
// caller's Seq field is ignored. Safe on a nil receiver.
func (t *Tracer) Record(ev Event) {
	t.RecordN(1, func(_ int, slots []Event) { slots[0] = ev })
}

// RecordN appends n events under one lock, as n Records in a row would:
// event i (0-based) gets the timestamp Seq()+i+1 at entry. fill(i,
// slots) writes events i, i+1, ... whole into slots, a run of adjacent
// ring slots; it is called once per run (at most twice: the ring wraps),
// and the tracer then stamps the events' Seq. An event a later one of
// the same call overwrites is never filled, but still advances Seq and
// counts as dropped. fill runs under the tracer's lock and must not call
// the tracer. Safe on a nil receiver.
func (t *Tracer) RecordN(n int, fill func(i int, slots []Event)) {
	if t == nil || n <= 0 {
		return
	}
	t.mu.Lock()
	size := len(t.buf)
	// Slots holding a retained event that this call writes into: the
	// writes land in the free slots first, then in the oldest events.
	free := size - t.next
	if t.full {
		free = 0
	}
	if lost := n - free; lost > 0 {
		t.dropped += uint64(lost)
		t.drops.Add(int64(lost))
	}
	for i := max(0, n-size); i < n; { // events before it are overwritten in this call
		j := (t.next + i) % size
		run := t.buf[j:min(size, j+n-i)]
		fill(i, run)
		for k := range run {
			run[k].Seq = t.seq + uint64(i+k) + 1
		}
		i += len(run)
	}
	t.seq += uint64(n)
	if t.next+n >= size {
		t.full = true
	}
	t.next = (t.next + n) % size
	t.mu.Unlock()
}

// Cap returns the number of events the ring retains. Safe on a nil
// receiver (0).
func (t *Tracer) Cap() int {
	if t == nil {
		return 0
	}
	return len(t.buf)
}

// Dropped returns how many events were overwritten before they could be
// read — the ring's total loss. Safe on a nil receiver.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// ObserveDrops mirrors every future overwrite into the registry's
// rdt_obs_events_dropped_total counter. Safe on nil receivers (either
// side).
func (t *Tracer) ObserveDrops(reg *Registry) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.drops = reg.Counter("rdt_obs_events_dropped_total")
	t.mu.Unlock()
}

// Seq returns the logical timestamp of the most recent event (0 when
// none was recorded). Safe on a nil receiver.
func (t *Tracer) Seq() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// Len returns the number of retained events. Safe on a nil receiver.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.full {
		return len(t.buf)
	}
	return t.next
}

// Tail returns up to n of the most recent events, oldest first, each
// with its Detail rendered (see Event.Format). n <= 0 returns every
// retained event. Safe on a nil receiver (nil slice).
func (t *Tracer) Tail(n int) []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	size := t.next
	if t.full {
		size = len(t.buf)
	}
	if n <= 0 || n > size {
		n = size
	}
	out := make([]Event, 0, n)
	// Oldest retained event sits at next when full, at 0 otherwise;
	// start n events before the write cursor.
	start := t.next - n
	if start < 0 {
		start += len(t.buf)
	}
	for i := 0; i < n; i++ {
		out = append(out, t.buf[(start+i)%len(t.buf)])
	}
	t.mu.Unlock()
	// Render outside the lock: the copies are the caller's, and writers
	// need not wait for the formatting.
	for i := range out {
		if ev := &out[i]; ev.Format != nil {
			ev.Detail, ev.Format = ev.Format(*ev), nil
		}
	}
	return out
}
