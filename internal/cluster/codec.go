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
//	magic 'R', version 0x03
//	uvarint from          — sending process
//	uvarint handle        — trace handle
//	uvarint sn            — BCS checkpoint sequence number
//	uvarint len(payload)  — application payload, raw bytes
//	uvarint len(tdv)      — dependency vector, one uvarint per entry
//	uvarint len(simple)   — simple array, bit-packed LSB-first
//	uvarint n             — causal-matrix dimension (0 = no matrix),
//	                        n*n cells bit-packed row-major LSB-first
//
// A frame is this header plus the protocol's piggyback and nothing
// else. Version 0x02 frames, which carried a trace context after the
// matrix, are refused.
//
// All header fields are non-negative by construction; the decoder
// validates every length against the bytes actually remaining, so
// arbitrary input can never provoke a huge allocation or a panic.
const (
	wireMagic   = 'R'
	wireVersion = 0x03

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

// encodeMsg serializes a message and its piggyback.
func encodeMsg(from, handle int, payload []byte, pb core.Piggyback) ([]byte, error) {
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
	if err == nil {
		err = r.Done()
	}
	if err != nil {
		return 0, 0, nil, core.Piggyback{}, fmt.Errorf("decode message: %w", err)
	}
	return from, handle, payload, pb, nil
}
