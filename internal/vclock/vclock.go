// Package vclock provides the dependency-tracking data structures used by
// the checkpointing protocols and analyses: integer transitive dependency
// vectors (TDV), boolean vectors (the protocol's simple and sent_to arrays)
// and bit-packed boolean matrices (the protocol's causal matrix), with
// exactly the merge rules the protocol of Figure 6 performs on message arrival.
package vclock

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Vec is an integer dependency vector. Entry k of process i's vector records
// the highest checkpoint-interval index of process k on which i's current
// state transitively depends through causal message chains; entry i is the
// index of i's current interval.
type Vec []int

// NewVec returns a zero vector of length n.
func NewVec(n int) Vec { return make(Vec, n) }

// Clone returns a copy of the vector.
func (v Vec) Clone() Vec { return append(Vec{}, v...) }

// MaxInto sets v to the componentwise maximum of v and other.
func (v Vec) MaxInto(other Vec) {
	for k := range v {
		if other[k] > v[k] {
			v[k] = other[k]
		}
	}
}

// Equal reports componentwise equality.
func (v Vec) Equal(other Vec) bool { return slices.Equal(v, other) }

// DominatedBy reports whether v <= other componentwise.
func (v Vec) DominatedBy(other Vec) bool {
	if len(v) != len(other) {
		return false
	}
	for k := range v {
		if v[k] > other[k] {
			return false
		}
	}
	return true
}

// String renders the vector as [a b c ...].
func (v Vec) String() string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.Itoa(x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// Bools is a boolean vector (the protocol's simple_i and sent_to_i arrays).
type Bools []bool

// NewBools returns an all-false vector of length n.
func NewBools(n int) Bools { return make(Bools, n) }

// Clone returns a copy of the vector.
func (b Bools) Clone() Bools { return append(Bools{}, b...) }

// Reset sets every entry to false.
func (b Bools) Reset() { clear(b) }

// Any reports whether at least one entry is true.
func (b Bools) Any() bool { return slices.Contains(b, true) }

// Count returns the number of true entries.
func (b Bools) Count() int {
	n := 0
	for _, x := range b {
		if x {
			n++
		}
	}
	return n
}

// String renders the vector as a bit string, e.g. "0110".
func (b Bools) String() string {
	var sb strings.Builder
	for _, x := range b {
		if x {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Matrix is a square boolean matrix; cell (k,l) of process i's causal matrix
// is true when, to i's knowledge, there is an on-line trackable R-path from
// C_{k,TDV_i[k]} to C_{l,TDV_i[l]}. Each row is packed into stride 64-bit
// words, cell (k,l) at bit l%64 of word l/64, so the row merges of a
// message arrival are word operations. Bits past column n-1 stay zero.
type Matrix struct {
	n, stride int
	words     []uint64
}

// MatrixWords returns the number of words an n x n matrix occupies.
func MatrixWords(n int) int { return n * ((n + 63) / 64) }

// NewMatrix returns an n x n all-false matrix.
func NewMatrix(n int) *Matrix { return new(Matrix).Reuse(n) }

// IdentityMatrix returns an n x n matrix with a true diagonal, the initial
// value of the protocol's causal matrix.
func IdentityMatrix(n int) *Matrix {
	m := NewMatrix(n)
	for k := 0; k < n; k++ {
		m.Set(k, k, true)
	}
	return m
}

// N returns the dimension of the matrix.
func (m *Matrix) N() int { return m.n }

func (m *Matrix) row(r int) []uint64 { return m.words[r*m.stride : (r+1)*m.stride] }

// At returns cell (row, col).
func (m *Matrix) At(row, col int) bool {
	return m.words[row*m.stride+col>>6]&(1<<(col&63)) != 0
}

// Set assigns cell (row, col).
func (m *Matrix) Set(row, col int, v bool) {
	if v {
		m.words[row*m.stride+col>>6] |= 1 << (col & 63)
	} else {
		m.words[row*m.stride+col>>6] &^= 1 << (col & 63)
	}
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := new(Matrix).Bind(m.n, make([]uint64, len(m.words)))
	c.CopyFrom(m)
	return c
}

// Bind makes m an n x n matrix whose cells live in words, which must
// hold MatrixWords(n) words, and returns m. The cells are whatever the
// words hold until CopyFrom overwrites them: Bind is for callers that
// carve matrices from storage of their own.
func (m *Matrix) Bind(n int, words []uint64) *Matrix {
	w := MatrixWords(n)
	m.n, m.stride, m.words = n, (n+63)/64, words[:w:w]
	return m
}

// CopyFrom overwrites m's cells with those of src, which must have the
// same dimension.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.n != src.n {
		panic(fmt.Sprintf("vclock: copy of a %dx%d matrix into a %dx%d one", src.n, src.n, m.n, m.n))
	}
	copy(m.words, src.words)
}

// Equal reports cellwise equality.
func (m *Matrix) Equal(other *Matrix) bool {
	return m.n == other.n && slices.Equal(m.words, other.words)
}

// MergeRow sets the given row of m to the same row of src, ORed with
// m's own row when keep is set: keep false copies src's row, keep true
// ORs it in. It is one masked operation per word either way.
func (m *Matrix) MergeRow(row int, src *Matrix, keep bool) {
	var mask uint64
	if keep {
		mask = ^uint64(0)
	}
	for i, end := row*m.stride, (row+1)*m.stride; i < end; i++ {
		m.words[i] = m.words[i]&mask | src.words[i]
	}
}

// OrColInto ORs column srcCol into column dstCol: for every row l,
// m[l][dstCol] |= m[l][srcCol]. This is the transitive-closure column update
// the protocol performs after a delivery from the sender's column. Each
// row moves the source bit to the destination by shifts, without a branch.
func (m *Matrix) OrColInto(dstCol, srcCol int) {
	sw, ss := srcCol>>6, uint(srcCol&63)
	dw, ds := dstCol>>6, uint(dstCol&63)
	for base := 0; base < len(m.words); base += m.stride {
		m.words[base+dw] |= (m.words[base+sw] >> ss & 1) << ds
	}
}

// ClearRowExcept sets every entry of the row to false except the given
// column (used by take_checkpoint, which resets causal_i[i][j] for j != i);
// keep -1 clears the whole row.
func (m *Matrix) ClearRowExcept(row, keep int) {
	kept := keep >= 0 && m.At(row, keep)
	clear(m.row(row))
	if kept {
		m.Set(row, keep, true)
	}
}

// ClearDiagonal sets every diagonal entry to false (protocol variant B keeps
// the diagonal permanently false).
func (m *Matrix) ClearDiagonal() {
	for k := 0; k < m.n; k++ {
		m.Set(k, k, false)
	}
}

// String renders the matrix with one bit-string row per line.
func (m *Matrix) String() string {
	var sb strings.Builder
	for r := 0; r < m.n; r++ {
		if r > 0 {
			sb.WriteByte('\n')
		}
		for c := 0; c < m.n; c++ {
			if m.At(r, c) {
				sb.WriteByte('1')
			} else {
				sb.WriteByte('0')
			}
		}
	}
	return sb.String()
}

// CheckDims verifies that a vector has the expected length; analyses use it
// to reject piggybacks from a differently-sized system.
func CheckDims(n int, v Vec) error {
	if len(v) != n {
		return fmt.Errorf("vector has length %d, want %d", len(v), n)
	}
	return nil
}

// Reuse reinitializes the matrix in place to an n x n all-false matrix,
// growing its word buffer only when needed, and returns it; a nil receiver
// yields a fresh matrix. It is the allocation-free counterpart of
// NewMatrix for decode scratch that is reused across messages.
func (m *Matrix) Reuse(n int) *Matrix {
	if m == nil {
		m = new(Matrix)
	}
	w := MatrixWords(n)
	if cap(m.words) < w {
		m.words = make([]uint64, w)
	}
	m.n, m.stride, m.words = n, (n+63)/64, m.words[:w]
	clear(m.words)
	return m
}

// AppendBits appends the matrix cells to buf, bit-packed in row-major
// order (cell (r,c) is bit r*n+c, LSB-first within each byte), and returns
// the extended buffer.
func (m *Matrix) AppendBits(buf []byte) []byte {
	return appendPacked(buf, m.n*m.n, func(i int) bool { return m.At(i/m.n, i%m.n) })
}

// LoadBits fills the matrix cells from bit-packed row-major data produced
// by AppendBits; bits must hold at least ceil(n*n/8) bytes.
func (m *Matrix) LoadBits(bits []byte) error {
	return loadPacked(bits, m.n*m.n, func(i int, v bool) { m.Set(i/m.n, i%m.n, v) })
}

// AppendBits appends the boolean vector to buf, bit-packed LSB-first, and
// returns the extended buffer.
func (b Bools) AppendBits(buf []byte) []byte {
	return appendPacked(buf, len(b), func(i int) bool { return b[i] })
}

// LoadBits fills the vector from bit-packed data produced by AppendBits;
// bits must hold at least ceil(len(b)/8) bytes.
func (b Bools) LoadBits(bits []byte) error {
	return loadPacked(bits, len(b), func(i int, v bool) { b[i] = v })
}

// PackedLen returns the number of bytes a bit-packed vector of n booleans
// occupies on the wire.
func PackedLen(n int) int { return (n + 7) / 8 }

// appendPacked appends the n bits bit(0), bit(1), ... to buf, LSB-first
// within each byte.
func appendPacked(buf []byte, n int, bit func(i int) bool) []byte {
	var cur byte
	for i := 0; i < n; i++ {
		if bit(i) {
			cur |= 1 << (i & 7)
		}
		if i&7 == 7 {
			buf, cur = append(buf, cur), 0
		}
	}
	if n&7 != 0 {
		buf = append(buf, cur)
	}
	return buf
}

// loadPacked calls set for each of the n bits appendPacked wrote to bits.
func loadPacked(bits []byte, n int, set func(i int, v bool)) error {
	if len(bits) < PackedLen(n) {
		return fmt.Errorf("packed bools: got %d bytes, need %d", len(bits), PackedLen(n))
	}
	for i := 0; i < n; i++ {
		set(i, bits[i>>3]&(1<<(i&7)) != 0)
	}
	return nil
}
