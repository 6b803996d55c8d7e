// Package stream implements the binary streaming ingest path of the
// checking service: the RDTSTRM1 protocol, a length-prefixed,
// CRC-framed binary wire spoken over long-lived TCP connections, built
// for sustained event rates the per-request HTTP/JSON surface cannot
// reach. The JSON API remains the compatibility and query surface;
// this wire only ingests.
//
// A connection opens with the 8-byte client magic "RDTSTRM1", answered
// by a HELLO frame; everything after is frames in both directions,
// framed exactly like the WAL (length, CRC32C, payload):
//
//	4 bytes  payload length, little endian
//	4 bytes  CRC32C (Castagnoli) of the payload
//	n bytes  payload = frame type byte + binenc-encoded fields
//
// One connection multiplexes any number of sessions as channels: OPEN
// binds a (session, producer) pair to a small channel id, EVENTS and
// SEAL frames carry that id plus a per-producer sequence number, and
// the server answers with cumulative ACK frames once the events are
// applied — for durable sessions, after they are persisted, so an ack
// is a durability receipt. Flow control is a credit window: the server
// grants a budget of in-flight (sent but unacked) events per channel
// at OPEN and replenishes it with every ack, so an overdriven server
// withholds credit instead of answering 429s.
//
// Sequence numbers make ingest at-least-once with exactly-once effect:
// a client that loses its connection replays every unacked frame on a
// new connection, and the server drops frames at or below the
// producer's accepted sequence — including frames that were accepted
// but not yet applied when the connection died — re-acking them once
// the originals have been applied.
package stream

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"github.com/rdt-go/rdt/internal/binenc"
)

// Magic is the 8-byte string a client writes before any frame.
const Magic = "RDTSTRM1"

// Version is the protocol revision announced in HELLO. Version 2 gave
// every ERROR frame an explicit scope.
const Version = 2

// Limits every Server announces in HELLO.
const (
	// DefaultMaxFrame bounds one frame payload, in bytes. Oversized
	// frames are rejected with a clean protocol error before any
	// allocation.
	DefaultMaxFrame = 1 << 20
	// DefaultWindow is the per-channel credit window, in events: the most
	// a client may have sent but unacked. It bounds the server's
	// per-channel memory and is the backpressure mechanism — an
	// overloaded server simply acks (and thus replenishes) late.
	DefaultWindow = 1 << 14
)

// handshakeTimeout bounds the wait for the other side's half of the
// handshake: the client magic on a server, HELLO on a client.
const handshakeTimeout = 10 * time.Second

// Frame types. Client-to-server types have the high bit clear.
const (
	frameOpen    = 0x01 // id string, n, producer string
	frameEvents  = 0x02 // chan, seq, count, events (service.AppendEvent's encoding)
	frameSeal    = 0x03 // chan, seq
	frameClose   = 0x04 // chan
	frameHello   = 0x81 // version, window, maxFrame
	frameOpenOK  = 0x82 // chan, id string, n, nextSeq, window
	frameAck     = 0x83 // chan, seq, credit
	frameError   = 0x84 // code, scope, detail string
	frameGoodbye = 0x85 // server draining
)

// An ERROR frame's scope is the channel it fails, 0 for the answer to
// the oldest pending OPEN, or connScope for the whole connection, which
// the server then closes.
const connScope = math.MaxUint64

// Protocol error codes carried by ERROR frames.
const (
	CodeMalformed   = 1 // unparseable frame, bad CRC, bad event encoding
	CodeFrameTooBig = 2 // frame length beyond the advertised maximum
	CodeUnknownChan = 3 // frame names a channel that was never opened
	CodeSession     = 4 // the session rejected the operation (detail says why)
	CodeSeqGap      = 5 // producer skipped ahead of its accepted sequence
	CodeDraining    = 6 // server is shutting down; no new channels
	CodeHandshake   = 7 // bad magic or handshake violation
	CodeBatchTooBig = 8 // events frame beyond the service's batch limit
	// CodeMoved is the stream wire's 307: the session lives on another
	// cluster member, whose stream address rides in the error detail.
	// Clients reconnect there and resume from the OPENOK sequence point.
	CodeMoved = 10
)

func codeString(code int) string {
	switch code {
	case CodeMalformed:
		return "malformed"
	case CodeFrameTooBig:
		return "frame-too-big"
	case CodeUnknownChan:
		return "unknown-channel"
	case CodeSession:
		return "session"
	case CodeSeqGap:
		return "seq-gap"
	case CodeDraining:
		return "draining"
	case CodeHandshake:
		return "handshake"
	case CodeBatchTooBig:
		return "batch-too-big"
	case CodeMoved:
		return "moved"
	default:
		return fmt.Sprintf("code-%d", code)
	}
}

// ProtocolError is a stream-level failure reported by the peer or
// detected locally; Code is one of the Code constants.
type ProtocolError struct {
	Code   int
	Detail string
}

func (e *ProtocolError) Error() string {
	return fmt.Sprintf("stream: %s: %s", codeString(e.Code), e.Detail)
}

// MovedTo extracts the owner's stream address from a MOVED error; ok
// is false for anything else (including owners without a stream wire,
// whose MOVED carries an empty address).
func MovedTo(err error) (addr string, ok bool) {
	var pe *ProtocolError
	if errors.As(err, &pe) && pe.Code == CodeMoved && pe.Detail != "" {
		return pe.Detail, true
	}
	return "", false
}

// frameConn is the shared framing layer (binenc's CRC32C frame):
// buffered reads with a bounds check before any allocation, and
// mutex-serialized writes (acks, errors, and opens interleave from
// different goroutines), each frame built in one reused buffer and
// sent with one Write.
type frameConn struct {
	c    net.Conn
	r    io.Reader
	rbuf []byte // reused frame payload buffer
	rhdr [binenc.FrameHeaderSize]byte

	wmu  sync.Mutex
	wbuf []byte // reused header+payload buffer
	max  int
}

func newFrameConn(c net.Conn) *frameConn {
	return &frameConn{c: c, r: c, max: DefaultMaxFrame}
}

// errFrameTooBig distinguishes the oversized-length case so the server
// can answer with a clean protocol error before hanging up — without
// ever allocating for the claimed length.
type errFrameTooBig struct{ n, max int }

func (e errFrameTooBig) Error() string {
	return fmt.Sprintf("frame payload %d bytes exceeds limit %d", e.n, e.max)
}

var errBadCRC = errors.New("frame CRC mismatch")

// readFrame reads one frame payload into the connection's reused
// buffer; the returned slice is valid until the next call.
func (fc *frameConn) readFrame() ([]byte, error) {
	if _, err := io.ReadFull(fc.r, fc.rhdr[:]); err != nil {
		return nil, err
	}
	length, want := binenc.ParseFrameHeader(fc.rhdr[:])
	if length == 0 || length > fc.max {
		return nil, errFrameTooBig{length, fc.max}
	}
	if cap(fc.rbuf) < length {
		fc.rbuf = make([]byte, length)
	}
	payload := fc.rbuf[:length]
	if _, err := io.ReadFull(fc.r, payload); err != nil {
		return nil, err
	}
	if binenc.FrameSum(payload) != want {
		return nil, errBadCRC
	}
	return payload, nil
}

// writeFrame frames and writes one payload. Safe for concurrent use.
func (fc *frameConn) writeFrame(payload []byte) error {
	fc.wmu.Lock()
	defer fc.wmu.Unlock()
	fc.wbuf = binenc.AppendFrame(fc.wbuf[:0], payload)
	_, err := fc.c.Write(fc.wbuf)
	return err
}

// writeHello sends the HELLO that answers a client's magic.
func (fc *frameConn) writeHello() error {
	buf := binenc.AppendInt([]byte{frameHello}, Version)
	return fc.writeFrame(binenc.AppendInt(binenc.AppendInt(buf, DefaultWindow), DefaultMaxFrame))
}

// writeError sends one ERROR frame in scope; it is the wire's only
// ERROR encoder.
func (fc *frameConn) writeError(scope uint64, code int, detail string) error {
	buf := binenc.AppendInt([]byte{frameError}, code)
	return fc.writeFrame(binenc.AppendString(binenc.AppendUvarint(buf, scope), detail))
}

func (fc *frameConn) Close() error { return fc.c.Close() }
