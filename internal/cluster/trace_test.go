package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/obs"
)

// TestClusterCausalTracing runs a traced exchange and checks the causal
// structure of the recorded spans: every send opens its own trace (span
// id doubling as trace id), every delivery joins the sender's trace with
// the send span as parent, and every checkpoint span taken inside an
// operation parents to that operation's span.
func TestClusterCausalTracing(t *testing.T) {
	fl := obs.NewFlightRecorder(4096)
	c, err := New(Config{N: 3, Protocol: core.KindBHMR, Flight: fl})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	const rounds = 8
	for i := 0; i < rounds; i++ {
		if err := c.Node(0).Send(1, []byte("a")); err != nil {
			t.Fatalf("send: %v", err)
		}
		if err := c.Node(1).Send(2, []byte("b")); err != nil {
			t.Fatalf("send: %v", err)
		}
		c.Quiesce()
		if err := c.Node(2).Checkpoint(); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
	}
	c.Quiesce()
	p, err := c.Stop()
	if err != nil {
		t.Fatalf("stop: %v", err)
	}

	spans := fl.Spans()
	sends := make(map[uint64]obs.Span) // span id -> send span
	var deliveries, checkpoints int
	for _, s := range spans {
		if s.Kind == obs.SpanSend {
			if s.TraceID != s.ID {
				t.Errorf("send span %d has trace id %d, want the span id", s.ID, s.TraceID)
			}
			sends[s.ID] = s
		}
	}
	if len(sends) != len(p.Messages) {
		t.Errorf("send spans = %d, want %d (one per message)", len(sends), len(p.Messages))
	}
	for _, s := range spans {
		switch s.Kind {
		case obs.SpanDeliver:
			deliveries++
			parent, ok := sends[s.Parent]
			if !ok {
				t.Fatalf("delivery span %d parents to unknown span %d", s.ID, s.Parent)
			}
			if s.TraceID != parent.TraceID {
				t.Errorf("delivery span %d trace %d != send trace %d", s.ID, s.TraceID, parent.TraceID)
			}
			if parent.Proc != s.Peer || parent.Peer != s.Proc {
				t.Errorf("delivery span %d endpoints (proc=%d peer=%d) do not mirror its send (proc=%d peer=%d)",
					s.ID, s.Proc, s.Peer, parent.Proc, parent.Peer)
			}
			if parent.Detail != s.Detail {
				t.Errorf("delivery span detail %q != send detail %q", s.Detail, parent.Detail)
			}
		case obs.SpanCheckpoint, obs.SpanForced:
			checkpoints++
			// A checkpoint inside a traced operation must belong to that
			// operation's trace; an explicit basic checkpoint has none.
			if s.Parent != 0 && s.TraceID == 0 {
				t.Errorf("checkpoint span %d has a parent but no trace", s.ID)
			}
		}
	}
	if deliveries != len(p.Messages) {
		t.Errorf("delivery spans = %d, want %d", deliveries, len(p.Messages))
	}
	if checkpoints < rounds {
		t.Errorf("checkpoint spans = %d, want >= %d (one per explicit basic checkpoint)", checkpoints, rounds)
	}

	// The recorder's Chrome export is valid JSON over exactly these spans.
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, fl.Spans()); err != nil {
		t.Fatalf("chrome trace: %v", err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != len(spans) {
		t.Errorf("chrome events = %d, want %d", len(doc.TraceEvents), len(spans))
	}
}

// TestClusterRecoverySpans checks that an end-to-end recovery records a
// recovery span on the synthetic track plus one rollback child per
// process the line rolled back.
func TestClusterRecoverySpans(t *testing.T) {
	fl := obs.NewFlightRecorder(4096)
	c1, err := New(Config{N: 3, Protocol: core.KindBHMR, LogPayloads: true, Flight: fl})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	for round := 0; round < 3; round++ {
		for proc := 0; proc < 3; proc++ {
			if err := c1.Node(proc).Send((proc+1)%3, []byte{byte(round)}); err != nil {
				t.Fatalf("send: %v", err)
			}
		}
		c1.Quiesce()
		for proc := 0; proc < 3; proc++ {
			if err := c1.Node(proc).Checkpoint(); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
		}
	}
	c1.Quiesce()
	if err := c1.Node(1).Crash(); err != nil {
		t.Fatalf("crash: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := c1.Recover(ctx, RecoverOptions{})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer res.Cluster.Stop() //nolint:errcheck

	var recSpan *obs.Span
	var rollbacks int
	for _, s := range fl.Spans() {
		s := s
		switch s.Kind {
		case obs.SpanRecovery:
			recSpan = &s
			if s.Proc != 3 {
				t.Errorf("recovery span on track %d, want the synthetic track 3", s.Proc)
			}
		case obs.SpanRollback:
			rollbacks++
			if recSpan == nil || s.Parent != recSpan.ID {
				t.Errorf("rollback span %d does not parent to the recovery span", s.ID)
			}
		}
	}
	if recSpan == nil {
		t.Fatalf("no recovery span recorded")
	}
	want := 0
	for _, d := range res.Plan.Depth {
		if d > 0 {
			want++
		}
	}
	if rollbacks != want {
		t.Errorf("rollback spans = %d, want %d (per-process depths %v)", rollbacks, want, res.Plan.Depth)
	}
}

// TestClusterTracingOffNoSpans pins the off switch: a cluster without a
// flight recorder records nothing and the wire still carries the zero
// trace context (two bytes, no allocations — TestCodecAllocBudget holds
// the budget itself).
func TestClusterTracingOffNoSpans(t *testing.T) {
	c, err := New(Config{N: 2, Protocol: core.KindBHMR})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	if err := c.Node(0).Send(1, nil); err != nil {
		t.Fatalf("send: %v", err)
	}
	c.Quiesce()
	if _, err := c.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	var zero *obs.FlightRecorder
	if zero.Len() != 0 || zero.Dropped() != 0 || zero.NextID() != 0 {
		t.Fatalf("nil flight recorder is not inert")
	}
}
