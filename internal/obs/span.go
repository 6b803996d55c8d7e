package obs

import (
	"encoding/json"
	"io"
)

// SpanKind classifies a span.
type SpanKind uint8

// The span kinds of a pattern's timeline (trace.Timeline).
const (
	// SpanSend is one message send.
	SpanSend SpanKind = iota + 1
	// SpanDeliver is one message delivery.
	SpanDeliver
	// SpanForced is a forced checkpoint; Detail names the visible
	// predicate that fired.
	SpanForced
	// SpanCheckpoint is one basic checkpoint.
	SpanCheckpoint
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
	default:
		return "span"
	}
}

// Span is one operation of a timeline. TraceID groups the spans of one
// message (its send and its delivery); Parent is the span that caused
// this one (0 for roots). Start and Dur are microseconds of a logical
// clock, the recorded per-process event positions, which makes a
// timeline reproducible.
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
