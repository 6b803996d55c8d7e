// Package binenc is the little codec dialect every deterministic state
// encoder of the repo speaks: append-style writers over a byte slice
// (non-negative integers as uvarints, length-prefixed byte strings) and
// a bounds-checked reader that latches the first error, so decoders
// read an entire structure and check Err once. Untrusted inputs (WAL
// records, snapshot files) are decoded through the Reader, which never
// panics and never reads past the buffer. It also owns the CRC32C frame
// a WAL record and an RDTSTRM1 frame share.
package binenc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// ErrCorrupt is wrapped by every Reader failure: truncated buffer,
// malformed uvarint, value out of range, trailing bytes.
var ErrCorrupt = errors.New("binenc: corrupt encoding")

// AppendUvarint appends v as a uvarint.
func AppendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

// AppendInt appends a non-negative int as a uvarint. Negative values
// are an encoder bug and panic.
func AppendInt(buf []byte, v int) []byte {
	if v < 0 {
		panic(fmt.Sprintf("binenc: negative value %d", v))
	}
	return binary.AppendUvarint(buf, uint64(v))
}

// AppendInts appends a length-prefixed slice of non-negative ints.
func AppendInts(buf []byte, vs []int) []byte {
	buf = AppendInt(buf, len(vs))
	for _, v := range vs {
		buf = AppendInt(buf, v)
	}
	return buf
}

// AppendBytes appends a length-prefixed byte string.
func AppendBytes(buf, b []byte) []byte {
	buf = AppendInt(buf, len(b))
	return append(buf, b...)
}

// AppendString appends a length-prefixed string.
func AppendString(buf []byte, s string) []byte {
	buf = AppendInt(buf, len(s))
	return append(buf, s...)
}

// AppendBool appends a bool as one byte.
func AppendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// Reader decodes a buffer written with the Append helpers. The zero
// value is not usable; call NewReader. After the first failure every
// further read returns a zero value and Err reports the failure.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader returns a reader over data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the first decoding failure, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.data) - r.off }

func (r *Reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at offset %d", ErrCorrupt, what, r.off)
	}
}

// Expect consumes and verifies a fixed magic prefix.
func (r *Reader) Expect(magic []byte) {
	if r.err != nil {
		return
	}
	if r.Remaining() < len(magic) {
		r.fail("short magic")
		return
	}
	for i, b := range magic {
		if r.data[r.off+i] != b {
			r.fail("bad magic")
			return
		}
	}
	r.off += len(magic)
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.data) {
		r.fail("short byte")
		return 0
	}
	b := r.data[r.off]
	r.off++
	return b
}

// Bool reads one byte as a bool, rejecting values other than 0 and 1.
func (r *Reader) Bool() bool {
	b := r.Byte()
	if r.err == nil && b > 1 {
		r.fail("bad bool")
		return false
	}
	return b == 1
}

// Uvarint reads one uvarint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.off += n
	return v
}

// Int reads a uvarint-encoded non-negative int.
func (r *Reader) Int() int {
	v := r.Uvarint()
	if r.err == nil && v > math.MaxInt64 {
		r.fail("int overflow")
		return 0
	}
	return int(v)
}

// IntMax reads an int and rejects values above limit — decoders bound
// every count they then allocate for, so corrupt lengths cannot force
// huge allocations.
func (r *Reader) IntMax(limit int) int {
	v := r.Int()
	if r.err == nil && v > limit {
		r.fail("length out of range")
		return 0
	}
	return v
}

// Ints reads a length-prefixed int slice of at most limit entries.
func (r *Reader) Ints(limit int) []int {
	n := r.IntMax(limit)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = r.Int()
	}
	if r.err != nil {
		return nil
	}
	return out
}

// Take reads n raw bytes with no length prefix (a sub-slice of the
// underlying buffer, not a copy) — for fields whose size the caller
// derives from an earlier one, like bit-packed vectors.
func (r *Reader) Take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Remaining() {
		r.fail("truncated")
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// Bytes reads a length-prefixed byte string (a sub-slice of the
// underlying buffer, not a copy).
func (r *Reader) Bytes() []byte { return r.Take(r.IntMax(r.Remaining())) }

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// Done fails unless the buffer was consumed exactly; it returns Err.
func (r *Reader) Done() error {
	if r.err == nil && r.Remaining() != 0 {
		r.fail("trailing bytes")
	}
	return r.err
}

// FrameHeaderSize is the overhead of one CRC32C frame, the unit of both
// a WAL record and an RDTSTRM1 frame:
//
//	4 bytes  payload length, little endian
//	4 bytes  CRC32C (Castagnoli) of the payload, little endian
//	n bytes  payload
//
// Each reader bounds the length with its own limit before it reads the
// payload.
const FrameHeaderSize = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends payload framed with its length and checksum.
func AppendFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	return append(buf, payload...)
}

// ParseFrameHeader returns the payload length and checksum a frame
// header carries; hdr holds at least FrameHeaderSize bytes.
func ParseFrameHeader(hdr []byte) (length int, sum uint32) {
	return int(binary.LittleEndian.Uint32(hdr[:4])), binary.LittleEndian.Uint32(hdr[4:8])
}

// FrameSum is the checksum a frame header carries for payload.
func FrameSum(payload []byte) uint32 {
	return crc32.Checksum(payload, castagnoli)
}
