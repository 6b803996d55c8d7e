package cluster

import (
	"fmt"
	"sync"

	"github.com/rdt-go/rdt/internal/binenc"
	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/vclock"
)

// The wire format of an application message with its protocol piggyback
// and the trace handle used to match send and delivery events. It is a
// binary layout in the repo's one codec dialect, internal/binenc (the
// hot path of the cluster runtime used to run through encoding/gob,
// which dominated the per-message allocation count):
//
//	magic 'R', version 0x02
//	uvarint from          — sending process
//	uvarint handle        — trace handle
//	uvarint sn            — BCS checkpoint sequence number
//	uvarint len(payload)  — application payload, raw bytes
//	uvarint len(tdv)      — dependency vector, one uvarint per entry
//	uvarint len(simple)   — simple array, bit-packed LSB-first
//	uvarint n             — causal-matrix dimension (0 = no matrix),
//	                        n*n cells bit-packed row-major LSB-first
//	uvarint trace         — causal trace id (0 = tracing off)
//	uvarint span          — sender's span id (0 = tracing off)
//
// The trailing trace context is what ties a delivery span to the send
// span that caused it across processes. With tracing off both values
// are zero — two bytes on the wire and no allocations, keeping the
// codec inside its AllocsPerRun budgets.
//
// All header fields are non-negative by construction; the decoder
// validates every length against the bytes actually remaining, so
// arbitrary input can never provoke a huge allocation or a panic.
const (
	wireMagic   = 'R'
	wireVersion = 0x02

	// maxWireMatrixDim bounds the causal-matrix dimension a frame may
	// declare; real systems are orders of magnitude smaller.
	maxWireMatrixDim = 1 << 16
)

// encodeBufs pools the scratch buffers frames are built in, so encoding
// allocates only the final exact-size frame instead of growing a fresh
// buffer per message.
var encodeBufs = sync.Pool{
	New: func() any { b := make([]byte, 0, 512); return &b },
}

// traceCtx is the causal trace context piggybacked on every frame: the
// trace the message belongs to and the send span that produced it. The
// zero value means tracing is off.
type traceCtx struct {
	trace uint64
	span  uint64
}

// encodeMsg serializes a message and its piggyback without trace
// context (tracing off).
func encodeMsg(from, handle int, payload []byte, pb core.Piggyback) ([]byte, error) {
	return encodeMsgTrace(from, handle, payload, pb, traceCtx{})
}

// encodeMsgTrace serializes a message, its piggyback, and the causal
// trace context.
func encodeMsgTrace(from, handle int, payload []byte, pb core.Piggyback, tc traceCtx) ([]byte, error) {
	if from < 0 || handle < 0 || pb.SN < 0 {
		return nil, fmt.Errorf("encode message: negative header field (from=%d handle=%d sn=%d)", from, handle, pb.SN)
	}
	for _, x := range pb.TDV {
		if x < 0 {
			return nil, fmt.Errorf("encode message: negative TDV entry %d", x)
		}
	}
	bp := encodeBufs.Get().(*[]byte)
	buf := append((*bp)[:0], wireMagic, wireVersion)
	buf = binenc.AppendInt(buf, from)
	buf = binenc.AppendInt(buf, handle)
	buf = binenc.AppendInt(buf, pb.SN)
	buf = binenc.AppendBytes(buf, payload)
	buf = binenc.AppendInts(buf, pb.TDV)
	buf = binenc.AppendInt(buf, len(pb.Simple))
	buf = pb.Simple.AppendBits(buf)
	if pb.Causal != nil {
		buf = binenc.AppendInt(buf, pb.Causal.N())
		buf = pb.Causal.AppendBits(buf)
	} else {
		buf = binenc.AppendInt(buf, 0)
	}
	buf = binenc.AppendUvarint(buf, tc.trace)
	buf = binenc.AppendUvarint(buf, tc.span)
	out := make([]byte, len(buf))
	copy(out, buf)
	*bp = buf[:0]
	encodeBufs.Put(bp)
	return out, nil
}

// pbScratch holds reusable piggyback storage for decodeMsgInto. Each node
// goroutine owns one, so repeated deliveries stop allocating fresh
// vectors and matrices per message. The piggyback returned by a decode
// into a scratch aliases its buffers and is only valid until the next
// decode into the same scratch.
type pbScratch struct {
	tdv    vclock.Vec
	simple vclock.Bools
	causal *vclock.Matrix

	// tc is the trace context of the last decoded frame — an output,
	// not reusable storage; the node goroutine reads it right after
	// decodeMsgInto returns.
	tc traceCtx
}

// decodeMsg deserializes a wire message into freshly allocated storage.
func decodeMsg(data []byte) (from, handle int, payload []byte, pb core.Piggyback, err error) {
	return decodeMsgInto(data, new(pbScratch))
}

// decodeMsgInto decodes the piggyback's vectors and matrix into the
// scratch's storage, growing it as needed. The payload is always a
// fresh copy: handlers may retain it. Reads latch the first failure
// (binenc.Reader) and a failed length reads as zero, so nothing is
// allocated for a field before its length passed its check.
func decodeMsgInto(data []byte, s *pbScratch) (from, handle int, payload []byte, pb core.Piggyback, err error) {
	r := binenc.NewReader(data)
	r.Expect([]byte{wireMagic, wireVersion})
	from = r.Int()
	handle = r.Int()
	pb.SN = r.Int()
	if raw := r.Bytes(); len(raw) > 0 {
		payload = make([]byte, len(raw))
		copy(payload, raw)
	}

	if n := r.IntMax(r.Remaining()); n > 0 { // every entry needs at least one byte
		if cap(s.tdv) < n {
			s.tdv = make(vclock.Vec, n)
		}
		pb.TDV = s.tdv[:n]
		for i := range pb.TDV {
			pb.TDV[i] = r.Int()
		}
	}

	if n := r.IntMax(8 * r.Remaining()); n > 0 { // eight entries to a byte
		if cap(s.simple) < n {
			s.simple = make(vclock.Bools, n)
		}
		pb.Simple = s.simple[:n]
		err = pb.Simple.LoadBits(r.Take(vclock.PackedLen(n)))
	}
	if dim := r.IntMax(maxWireMatrixDim); dim > 0 && err == nil {
		if bits := r.Take(vclock.PackedLen(dim * dim)); bits != nil {
			s.causal = s.causal.Reuse(dim)
			pb.Causal = s.causal
			err = pb.Causal.LoadBits(bits)
		}
	}
	tc := traceCtx{trace: r.Uvarint(), span: r.Uvarint()}
	if err == nil {
		err = r.Done()
	}
	if err != nil {
		return 0, 0, nil, core.Piggyback{}, fmt.Errorf("decode message: %w", err)
	}
	s.tc = tc
	return from, handle, payload, pb, nil
}
