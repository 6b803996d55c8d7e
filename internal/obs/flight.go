package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
)

// SpanKind classifies a flight-recorder span.
type SpanKind uint8

// The span kinds recorded by the runtime and the service.
const (
	// SpanSend covers one message send: protocol OnSend, piggyback
	// encode, transport submit.
	SpanSend SpanKind = iota + 1
	// SpanDeliver covers one message delivery: decode, the protocol's
	// forced-checkpoint decision, and the application handler.
	SpanDeliver
	// SpanForced is a forced checkpoint taken inside a delivery;
	// Detail names the visible predicate that fired.
	SpanForced
	// SpanCheckpoint covers one checkpoint write (basic or forced)
	// including the store round trip.
	SpanCheckpoint
	// SpanRecovery covers one end-to-end crash recovery.
	SpanRecovery
	// SpanRollback is one process rolling back during recovery.
	SpanRollback
	// SpanSeal is a service session being finalized.
	SpanSeal
)

// String returns the span kind's wire name.
func (k SpanKind) String() string {
	switch k {
	case SpanSend:
		return "send"
	case SpanDeliver:
		return "deliver"
	case SpanForced:
		return "forced-checkpoint"
	case SpanCheckpoint:
		return "checkpoint"
	case SpanRecovery:
		return "recovery"
	case SpanRollback:
		return "rollback"
	case SpanSeal:
		return "seal"
	default:
		return "span"
	}
}

// Span is one recorded operation. TraceID groups the spans of one
// causal trace (a message and everything its delivery forced); Parent
// is the span that caused this one (0 for roots), carried across
// processes on the message piggyback. Start and Dur are microseconds —
// wall-clock in the runtime, logical event counters in the service
// (which makes its timelines reproducible).
type Span struct {
	TraceID uint64   `json:"trace_id"`
	ID      uint64   `json:"span_id"`
	Parent  uint64   `json:"parent_id,omitempty"`
	Kind    SpanKind `json:"kind"`
	Proc    int      `json:"proc"`
	Peer    int      `json:"peer,omitempty"`
	Start   int64    `json:"start_us"`
	Dur     int64    `json:"dur_us"`
	Detail  string   `json:"detail,omitempty"`
}

// FlightRecorder is a bounded ring buffer of spans — the always-on
// crash-investigation record. When full, new spans overwrite the
// oldest and the loss is counted. All methods are safe for concurrent
// use and safe on a nil receiver (no-ops), so recording sites need no
// "is tracing on" branches beyond the nil check.
type FlightRecorder struct {
	ids atomic.Uint64

	mu      sync.Mutex
	buf     []Span
	next    int
	full    bool
	dropped uint64
	drops   *Counter
}

// DefaultFlightCapacity is the ring size used by the cmd tools.
const DefaultFlightCapacity = 16384

// NewFlightRecorder returns a recorder retaining the last capacity
// spans (minimum 1).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity < 1 {
		capacity = 1
	}
	return &FlightRecorder{buf: make([]Span, capacity)}
}

// NextID returns a fresh non-zero span/trace identifier. Safe on a nil
// receiver (returns 0, the "no span" id).
func (f *FlightRecorder) NextID() uint64 {
	if f == nil {
		return 0
	}
	return f.ids.Add(1)
}

// Record appends a span. Safe on a nil receiver.
func (f *FlightRecorder) Record(s Span) {
	if f == nil {
		return
	}
	f.mu.Lock()
	if f.full {
		f.dropped++
		f.drops.Inc()
	}
	f.buf[f.next] = s
	f.next++
	if f.next == len(f.buf) {
		f.next = 0
		f.full = true
	}
	f.mu.Unlock()
}

// Len returns the number of retained spans. Safe on a nil receiver.
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.full {
		return len(f.buf)
	}
	return f.next
}

// Dropped returns how many spans were overwritten. Safe on a nil
// receiver.
func (f *FlightRecorder) Dropped() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dropped
}

// ObserveDrops mirrors every future overwrite into the registry's
// rdt_obs_spans_dropped_total counter. Safe on nil receivers.
func (f *FlightRecorder) ObserveDrops(reg *Registry) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.drops = reg.Counter("rdt_obs_spans_dropped_total")
	f.mu.Unlock()
}

// Spans returns the retained spans, oldest first. Safe on a nil
// receiver (nil slice).
func (f *FlightRecorder) Spans() []Span {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	size := f.next
	start := 0
	if f.full {
		size = len(f.buf)
		start = f.next
	}
	out := make([]Span, 0, size)
	for i := 0; i < size; i++ {
		out = append(out, f.buf[(start+i)%len(f.buf)])
	}
	return out
}

// chromeEvent is one complete ("ph":"X") trace event of the Chrome
// trace-event format; field order is fixed so the output is
// byte-identical across runs for the same spans.
type chromeEvent struct {
	Name string     `json:"name"`
	Cat  string     `json:"cat"`
	Ph   string     `json:"ph"`
	Ts   int64      `json:"ts"`
	Dur  int64      `json:"dur"`
	Pid  int        `json:"pid"`
	Tid  int        `json:"tid"`
	Args chromeArgs `json:"args"`
}

type chromeArgs struct {
	TraceID uint64 `json:"trace_id"`
	SpanID  uint64 `json:"span_id"`
	Parent  uint64 `json:"parent_id,omitempty"`
	Peer    int    `json:"peer,omitempty"`
	Detail  string `json:"detail,omitempty"`
}

// WriteChromeTrace renders spans in the Chrome trace-event JSON format
// (the "JSON Array Format" with a traceEvents wrapper), one track per
// process (tid), loadable in Perfetto and chrome://tracing. Timestamps
// are microseconds. Output is deterministic: spans render in the order
// given, one event per line.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	if _, err := io.WriteString(w, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i := range spans {
		s := &spans[i]
		dur := s.Dur
		if dur < 1 {
			dur = 1 // zero-width spans are invisible in the viewers
		}
		ev := chromeEvent{
			Name: s.Kind.String(),
			Cat:  "rdt",
			Ph:   "X",
			Ts:   s.Start,
			Dur:  dur,
			Pid:  0,
			Tid:  s.Proc,
			Args: chromeArgs{TraceID: s.TraceID, SpanID: s.ID, Parent: s.Parent, Peer: s.Peer, Detail: s.Detail},
		}
		data, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(spans)-1 {
			sep = "\n"
		}
		if _, err := w.Write(append(data, sep...)); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}
