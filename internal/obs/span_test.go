package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestWriteChromeTrace(t *testing.T) {
	spans := []Span{
		{TraceID: 7, ID: 1, Kind: SpanSend, Proc: 0, Peer: 1, Start: 10, Dur: 5, Detail: "m0"},
		{TraceID: 7, ID: 2, Parent: 1, Kind: SpanDeliver, Proc: 1, Peer: 0, Start: 20, Dur: 0},
	}
	var b strings.Builder
	if err := WriteChromeTrace(&b, spans); err != nil {
		t.Fatalf("write: %v", err)
	}
	out := b.String()
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
			Tid  int    `json:"tid"`
			Args struct {
				TraceID uint64 `json:"trace_id"`
				Parent  uint64 `json:"parent_id"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d events", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0].Name != "send" || doc.TraceEvents[0].Ph != "X" || doc.TraceEvents[0].Tid != 0 {
		t.Fatalf("first event: %+v", doc.TraceEvents[0])
	}
	if doc.TraceEvents[1].Dur != 1 {
		t.Fatalf("zero-width span must render with dur 1, got %d", doc.TraceEvents[1].Dur)
	}
	if doc.TraceEvents[1].Args.Parent != 1 || doc.TraceEvents[1].Args.TraceID != 7 {
		t.Fatalf("span linkage lost: %+v", doc.TraceEvents[1].Args)
	}
	// Determinism: a second render is byte-identical.
	var b2 strings.Builder
	_ = WriteChromeTrace(&b2, spans)
	if b2.String() != out {
		t.Fatalf("chrome trace output is not deterministic")
	}
}
