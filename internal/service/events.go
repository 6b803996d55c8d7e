// Package service is the multi-session RDT checking service: it accepts
// streaming checkpoint/send/deliver events from many concurrent client
// sessions, maintains per-session incremental RDT state (an
// rgraph.Incremental plus the log of records it was fed), and serves
// live verdicts, recovery-line queries, and pattern dumps over HTTP.
//
// One lifecycle table says where each session id is (absent, held, live
// or retiring); each live session owns a bounded ingestion queue drained
// by one worker goroutine, so event application is serialized per
// session while sessions proceed in parallel. A full queue surfaces as
// backpressure (HTTP 429 + Retry-After), never as blocking the ingest
// handler.
package service

import (
	"cmp"
	"errors"
	"fmt"

	"github.com/rdt-go/rdt/internal/binenc"
)

// Event operations accepted on the wire.
const (
	OpCheckpoint = "checkpoint"
	OpSend       = "send"
	OpDeliver    = "deliver"
)

// Event is one streamed session event in its JSON and API form, which
// admission encodes (AppendEvent, or the JSON scanner as it decodes):
// nothing past admission reads it. The ingest endpoint accepts a single
// event object or an array of them.
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

// ErrInvalidEvent means a batch holds an event no session could accept
// whatever its state; admission refuses it whole, and it changes nothing.
var ErrInvalidEvent = errors.New("invalid event")

// The one binary event encoding: an RDTSTRM1 EVENTS frame carries it on
// the wire (internal/stream) and a log/WAL record the same bytes behind
// its header, so a streamed batch reaches the disk copied, not
// converted. Each event is an op byte, then the op's fields as uvarints.
const (
	opCheckpoint = 1 // proc, kind byte (0 basic, 1 forced)
	opSend       = 2 // proc, peer, msg
	opDeliver    = 3 // msg
)

// event is the typed form of one event, what apply, replay, the pattern
// and the directory peek work on. Only the fields its op carries are set
// (a kind-1 record carried all of them).
type event struct {
	op              byte
	forced          bool
	proc, peer, msg int
}

// typed is the one place an Event's strings are read: its typed form, or
// why no session could accept it whatever its state.
func (ev *Event) typed() (event, error) {
	e := event{proc: ev.Proc}
	switch ev.Op {
	case OpCheckpoint:
		e.op, e.forced = opCheckpoint, ev.Kind == "forced"
		if !e.forced && ev.Kind != "" && ev.Kind != "basic" {
			return e, fmt.Errorf("unknown checkpoint kind %q", ev.Kind)
		}
	case OpSend:
		e.op, e.peer, e.msg = opSend, ev.Peer, ev.Msg
	case OpDeliver:
		e = event{op: opDeliver, msg: ev.Msg}
	default:
		return e, fmt.Errorf("unknown op %q", ev.Op)
	}
	switch {
	case e.op != opCheckpoint && ev.Kind != "":
		return e, fmt.Errorf("op %q does not take a kind", ev.Op)
	case e.op != opCheckpoint && ev.Msg < 0:
		return e, fmt.Errorf("message id %d is negative", ev.Msg)
	case ev.Proc < 0:
		return e, fmt.Errorf("process %d is negative", ev.Proc)
	case ev.Peer < 0:
		return e, fmt.Errorf("peer %d is negative", ev.Peer)
	}
	return e, nil
}

// AppendEvent appends ev in the one binary event encoding — what an
// RDTSTRM1 EVENTS frame and a WAL record carry — or says why no session
// could accept it.
func AppendEvent(buf []byte, ev *Event) ([]byte, error) {
	e, err := ev.typed()
	if err != nil {
		return buf, err
	}
	return e.appendTo(buf), nil
}

func (e *event) appendTo(buf []byte) []byte {
	buf = append(buf, e.op)
	switch e.op {
	case opCheckpoint:
		return binenc.AppendBool(binenc.AppendInt(buf, e.proc), e.forced)
	case opSend:
		return binenc.AppendInt(binenc.AppendInt(binenc.AppendInt(buf, e.proc), e.peer), e.msg)
	default:
		return binenc.AppendInt(buf, e.msg)
	}
}

// readEvent decodes one event; bounds failures latch in r, an unknown op
// byte is an error of its own.
func readEvent(r *binenc.Reader, e *event) error {
	*e = event{op: r.Byte()}
	switch e.op {
	case opCheckpoint:
		e.proc, e.forced = r.Int(), r.Bool()
	case opSend:
		e.proc, e.peer, e.msg = r.Int(), r.Int(), r.Int()
	case opDeliver:
		e.msg = r.Int()
	default:
		if r.Err() == nil {
			return fmt.Errorf("unknown event op byte %d", e.op)
		}
	}
	return r.Err()
}

// readEventV1 decodes one event of a kind-1 record: op byte, kind byte,
// then proc, peer and msg whatever the op.
func readEventV1(r *binenc.Reader, e *event) error {
	*e = event{op: r.Byte(), forced: r.Bool(), proc: r.Int(), peer: r.Int(), msg: r.Int()}
	if r.Err() == nil && (e.op < opCheckpoint || e.op > opDeliver) {
		return fmt.Errorf("unknown event op byte %d", e.op)
	}
	return r.Err()
}

// Record kinds. A record is one batch as the session log and the WAL
// hold it: kind, seal bit, stream producer and sequence (empty and 0 off
// the stream wire), event count, then the events. Every record is
// written as kind 2, whose events are in the one event encoding. Kind 1,
// which earlier builds wrote, carried each event as op, kind byte, proc,
// peer and msg; it stays readable so their data directories recover
// (DESIGN.md §10).
const (
	recordV1 = 1
	recordV2 = 2
)

// errUnknownKind is a record of a kind this build does not know: not
// damage to cut away but a newer format, so it fails the load.
var errUnknownKind = errors.New("unknown record kind")

// record is one record: raw its bytes, the header decoded beside them,
// and the events from raw[at:].
type record struct {
	raw      []byte
	at       int
	kind     byte
	seal     bool
	producer string
	seq      uint64
	count    int
}

// newRecord starts a kind-2 record: the header, with room for size bytes
// of events the caller appends to raw.
func newRecord(seal bool, producer string, seq uint64, count, size int) record {
	raw := make([]byte, 0, 16+len(producer)+size)
	raw = append(raw, recordV2)
	raw = binenc.AppendBool(raw, seal)
	raw = binenc.AppendString(raw, producer)
	raw = binenc.AppendUvarint(raw, seq)
	raw = binenc.AppendInt(raw, count)
	return record{raw: raw, at: len(raw), kind: recordV2, seal: seal, producer: producer, seq: seq, count: count}
}

// encodeRecord is the record of a batch of API events, or
// ErrInvalidEvent naming the first one no session could accept.
func encodeRecord(events []Event, seal bool, producer string, seq uint64) (record, error) {
	rec := newRecord(seal, producer, seq, len(events), 8*len(events))
	for i := range events {
		var err error
		if rec.raw, err = AppendEvent(rec.raw, &events[i]); err != nil {
			return record{}, fmt.Errorf("%w: event %d: %v", ErrInvalidEvent, i, err)
		}
	}
	return rec, nil
}

// decodeRecord reads one record, every event checked: a record that does
// not decode is corruption its frame's CRC missed. A kind this build does
// not know wraps errUnknownKind.
func decodeRecord(payload []byte) (record, error) {
	rec, err := recordHeader(payload)
	if err != nil {
		return record{}, err
	}
	return rec, rec.check()
}

// recordHeader reads a record's header alone. A record of the session
// log was checked at admission or on load, so the log's readers need no
// more.
func recordHeader(payload []byte) (record, error) {
	r := binenc.NewReader(payload)
	rec := record{raw: payload, kind: r.Byte()}
	if r.Err() == nil && rec.kind != recordV1 && rec.kind != recordV2 {
		return record{}, fmt.Errorf("%w %d", errUnknownKind, rec.kind)
	}
	rec.seal, rec.producer, rec.seq, rec.count = r.Bool(), r.String(), r.Uvarint(), r.IntMax(len(payload))
	if err := r.Err(); err != nil {
		return record{}, err
	}
	rec.at = len(payload) - r.Remaining()
	return rec, nil
}

// check walks every event of the record and requires them to fill it.
func (rec *record) check() error {
	er := rec.reader()
	for e := (event{}); er.next(&e); {
	}
	return cmp.Or(er.err, er.r.Done())
}

// eventReader walks a record's events: the one reader behind apply,
// replay, the pattern and the peek. Every record is checked (check)
// before anything else walks it, so only check ever sees err set.
type eventReader struct {
	r    binenc.Reader
	v1   bool
	left int
	err  error
}

func (rec *record) reader() eventReader {
	return eventReader{r: *binenc.NewReader(rec.raw[rec.at:]), v1: rec.kind == recordV1, left: rec.count}
}

// next decodes the next event into e; it reports false once the events
// are exhausted or one fails to decode.
func (er *eventReader) next(e *event) bool {
	if er.left == 0 || er.err != nil {
		return false
	}
	er.left--
	if er.v1 {
		er.err = readEventV1(&er.r, e)
	} else {
		er.err = readEvent(&er.r, e)
	}
	return er.err == nil
}
