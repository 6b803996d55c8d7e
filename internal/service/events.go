// Package service is the multi-session RDT checking service: it accepts
// streaming checkpoint/send/deliver events from many concurrent client
// sessions, maintains per-session incremental RDT state (an
// rgraph.Incremental plus the log of events it was fed), and serves
// live verdicts, recovery-line queries, and pattern dumps over HTTP.
//
// Sessions are sharded by id hash; each session owns a bounded ingestion
// queue drained by one worker goroutine, so event application is
// serialized per session while sessions proceed in parallel. A full
// queue surfaces as backpressure (HTTP 429 + Retry-After), never as
// blocking the ingest handler.
package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"github.com/rdt-go/rdt/internal/model"
)

// Event operations accepted on the wire.
const (
	OpCheckpoint = "checkpoint"
	OpSend       = "send"
	OpDeliver    = "deliver"
)

// Event is one streamed session event. The ingest endpoint accepts a
// single event object or an array of them.
//
//   - checkpoint: Proc takes a local checkpoint; Kind is "basic"
//     (default) or "forced".
//   - send: Proc sends message Msg to Peer. Msg is a client-chosen
//     id, unique over the session's lifetime.
//   - deliver: the message Msg is delivered (the destination was fixed
//     at send time, so only the id is needed).
type Event struct {
	Op   string `json:"op"`
	Proc int    `json:"proc"`
	Peer int    `json:"peer,omitempty"`
	Msg  int    `json:"msg,omitempty"`
	Kind string `json:"kind,omitempty"`
}

// ErrBatchTooLarge is wrapped by DecodeEvents when a batch exceeds the
// configured event count.
var ErrBatchTooLarge = errors.New("event batch too large")

// decodeScratch is reusable per-request decode state: the body buffer
// and the event slice. Pooling it removes the two allocations that
// dominate the JSON ingest profile (io.ReadAll's growth chain and the
// batch slice), leaving only encoding/json's own per-event work.
type decodeScratch struct {
	buf    []byte
	events []Event
}

var decodePool = sync.Pool{New: func() any { return new(decodeScratch) }}

// DecodeEvents parses an ingest request body: either one event object
// or a JSON array of events, at most maxBatch of them (0 means the
// DefaultMaxBatch). Only the shape is validated here — process ranges
// and message-id bookkeeping need session state and are checked at
// apply time. Callers bound the reader (the HTTP layer uses
// MaxBytesReader) so a hostile body cannot exhaust memory.
//
// The returned slice is freshly owned by the caller; the hot ingest
// path uses DecodeEventsPooled instead.
func DecodeEvents(r io.Reader, maxBatch int) ([]Event, error) {
	return decodeEventsInto(new(decodeScratch), r, maxBatch)
}

// DecodeEventsPooled is DecodeEvents over pooled scratch: the returned
// events share a recycled backing array, and the caller must invoke
// release — exactly when the events are no longer referenced (for the
// ingest handler: from the batch's completion notify) — to return the
// scratch to the pool. release is idempotent; on error there is nothing
// to release.
func DecodeEventsPooled(r io.Reader, maxBatch int) (events []Event, release func(), err error) {
	sc := decodePool.Get().(*decodeScratch)
	events, err = decodeEventsInto(sc, r, maxBatch)
	if err != nil {
		decodePool.Put(sc)
		return nil, nil, err
	}
	var once sync.Once
	return events, func() { once.Do(func() { decodePool.Put(sc) }) }, nil
}

func decodeEventsInto(sc *decodeScratch, r io.Reader, maxBatch int) ([]Event, error) {
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	var err error
	sc.buf, err = readAllInto(sc.buf[:0], r)
	if err != nil {
		return nil, fmt.Errorf("decode events: %w", err)
	}
	trimmed := bytes.TrimSpace(sc.buf)
	if len(trimmed) == 0 {
		return nil, errors.New("decode events: empty body")
	}
	// json reuses existing elements when decoding into spare capacity,
	// and absent keys (omitempty peers, message ids) would inherit the
	// previous request's values — zero the recycled elements first.
	clear(sc.events[:cap(sc.events)])
	events := sc.events[:0]
	if trimmed[0] == '[' {
		if err := strictUnmarshal(trimmed, &events); err != nil {
			return nil, fmt.Errorf("decode events: %w", err)
		}
	} else {
		var ev Event
		if err := strictUnmarshal(trimmed, &ev); err != nil {
			return nil, fmt.Errorf("decode events: %w", err)
		}
		events = append(events, ev)
	}
	sc.events = events
	if len(events) == 0 {
		return nil, errors.New("decode events: empty batch")
	}
	if len(events) > maxBatch {
		return nil, fmt.Errorf("decode events: %w: %d events, limit %d", ErrBatchTooLarge, len(events), maxBatch)
	}
	for i := range events {
		if err := events[i].validateShape(); err != nil {
			return nil, fmt.Errorf("decode events: event %d: %w", i, err)
		}
	}
	return events, nil
}

// readAllInto is io.ReadAll reusing buf's capacity across requests.
func readAllInto(buf []byte, r io.Reader) ([]byte, error) {
	if cap(buf) == 0 {
		buf = make([]byte, 0, 2048)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// strictUnmarshal decodes one JSON value and rejects trailing data, so
// a concatenation of two bodies (a symptom of a confused client) is an
// error instead of a silent half-ingest.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after events")
	}
	return nil
}

// validateShape rejects events no session could accept, regardless of
// its state: unknown operations, unknown checkpoint kinds, negative
// identifiers.
func (ev *Event) validateShape() error {
	switch ev.Op {
	case OpCheckpoint:
		if _, err := ev.checkpointKind(); err != nil {
			return err
		}
	case OpSend, OpDeliver:
		if ev.Kind != "" {
			return fmt.Errorf("op %q does not take a kind", ev.Op)
		}
		if ev.Msg < 0 {
			return fmt.Errorf("message id %d is negative", ev.Msg)
		}
	default:
		return fmt.Errorf("unknown op %q", ev.Op)
	}
	if ev.Proc < 0 {
		return fmt.Errorf("process %d is negative", ev.Proc)
	}
	if ev.Peer < 0 {
		return fmt.Errorf("peer %d is negative", ev.Peer)
	}
	return nil
}

// checkpointKind maps the wire kind to the model kind; streamed
// checkpoints are basic or forced (initial and final checkpoints are
// created by the session itself).
func (ev *Event) checkpointKind() (model.CheckpointKind, error) {
	switch ev.Kind {
	case "", "basic":
		return model.KindBasic, nil
	case "forced":
		return model.KindForced, nil
	default:
		return 0, fmt.Errorf("unknown checkpoint kind %q", ev.Kind)
	}
}
