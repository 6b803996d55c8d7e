// Package vclock provides the dependency-tracking data structures used by
// the checkpointing protocols and analyses: integer transitive dependency
// vectors (TDV), boolean vectors (the protocol's simple and sent_to arrays)
// and boolean matrices (the protocol's causal matrix), with exactly the
// merge rules the protocol of Figure 6 performs on message arrival.
package vclock

import (
	"fmt"
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
func (v Vec) Clone() Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// MaxInto sets v to the componentwise maximum of v and other.
func (v Vec) MaxInto(other Vec) {
	for k := range v {
		if other[k] > v[k] {
			v[k] = other[k]
		}
	}
}

// Equal reports componentwise equality.
func (v Vec) Equal(other Vec) bool {
	if len(v) != len(other) {
		return false
	}
	for k := range v {
		if v[k] != other[k] {
			return false
		}
	}
	return true
}

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
func (b Bools) Clone() Bools {
	out := make(Bools, len(b))
	copy(out, b)
	return out
}

// Reset sets every entry to false.
func (b Bools) Reset() {
	for k := range b {
		b[k] = false
	}
}

// Any reports whether at least one entry is true.
func (b Bools) Any() bool {
	for _, x := range b {
		if x {
			return true
		}
	}
	return false
}

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
// C_{k,TDV_i[k]} to C_{l,TDV_i[l]}.
type Matrix struct {
	n     int
	cells []bool
}

// NewMatrix returns an n x n all-false matrix.
func NewMatrix(n int) *Matrix {
	return &Matrix{n: n, cells: make([]bool, n*n)}
}

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

// At returns cell (row, col).
func (m *Matrix) At(row, col int) bool { return m.cells[row*m.n+col] }

// Set assigns cell (row, col).
func (m *Matrix) Set(row, col int, v bool) { m.cells[row*m.n+col] = v }

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	out := &Matrix{n: m.n, cells: make([]bool, len(m.cells))}
	copy(out.cells, m.cells)
	return out
}

// CloneInto makes dst a copy of m whose cells live in the given buffer,
// which must hold n*n entries, and returns dst. It is Clone for callers
// that carve matrices from storage of their own.
func (m *Matrix) CloneInto(dst *Matrix, cells []bool) *Matrix {
	copy(cells, m.cells)
	*dst = Matrix{n: m.n, cells: cells[:len(m.cells):len(m.cells)]}
	return dst
}

// Equal reports cellwise equality.
func (m *Matrix) Equal(other *Matrix) bool {
	if m.n != other.n {
		return false
	}
	for i := range m.cells {
		if m.cells[i] != other.cells[i] {
			return false
		}
	}
	return true
}

// CopyRow overwrites row of m with the same row of src.
func (m *Matrix) CopyRow(row int, src *Matrix) {
	copy(m.cells[row*m.n:(row+1)*m.n], src.cells[row*src.n:(row+1)*src.n])
}

// OrRow ORs the given row of src into the same row of m.
func (m *Matrix) OrRow(row int, src *Matrix) {
	dst := m.cells[row*m.n : (row+1)*m.n]
	s := src.cells[row*src.n : (row+1)*src.n]
	for k := range dst {
		dst[k] = dst[k] || s[k]
	}
}

// OrColInto ORs column srcCol into column dstCol: for every row l,
// m[l][dstCol] |= m[l][srcCol]. This is the transitive-closure column update
// the protocol performs after a delivery from the sender's column.
func (m *Matrix) OrColInto(dstCol, srcCol int) {
	for l := 0; l < m.n; l++ {
		if m.cells[l*m.n+srcCol] {
			m.cells[l*m.n+dstCol] = true
		}
	}
}

// ClearRowExcept sets every entry of the row to false except the given
// column (used by take_checkpoint, which resets causal_i[i][j] for j != i).
func (m *Matrix) ClearRowExcept(row, keep int) {
	base := row * m.n
	for c := 0; c < m.n; c++ {
		if c != keep {
			m.cells[base+c] = false
		}
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

// CloneCells returns a copy of the matrix cells in row-major order, for
// wire encoding.
func (m *Matrix) CloneCells() []bool {
	out := make([]bool, len(m.cells))
	copy(out, m.cells)
	return out
}

// MatrixFromCells rebuilds a matrix from row-major cells produced by
// CloneCells.
func MatrixFromCells(n int, cells []bool) (*Matrix, error) {
	if len(cells) != n*n {
		return nil, fmt.Errorf("matrix cells: got %d, want %d", len(cells), n*n)
	}
	m := NewMatrix(n)
	copy(m.cells, cells)
	return m, nil
}

// Reuse reinitializes the matrix in place to an n x n all-false matrix,
// growing its cell buffer only when needed, and returns it; a nil receiver
// yields a fresh matrix. It is the allocation-free counterpart of
// NewMatrix for decode scratch that is reused across messages.
func (m *Matrix) Reuse(n int) *Matrix {
	if m == nil {
		return NewMatrix(n)
	}
	need := n * n
	if cap(m.cells) < need {
		m.cells = make([]bool, need)
	} else {
		m.cells = m.cells[:need]
		for i := range m.cells {
			m.cells[i] = false
		}
	}
	m.n = n
	return m
}

// AppendBits appends the matrix cells to buf, bit-packed in row-major
// order (LSB-first within each byte), and returns the extended buffer.
func (m *Matrix) AppendBits(buf []byte) []byte {
	return appendPackedBools(buf, m.cells)
}

// LoadBits fills the matrix cells from bit-packed row-major data produced
// by AppendBits; bits must hold at least ceil(n*n/8) bytes.
func (m *Matrix) LoadBits(bits []byte) error {
	return loadPackedBools(m.cells, bits)
}

// AppendBits appends the boolean vector to buf, bit-packed LSB-first, and
// returns the extended buffer.
func (b Bools) AppendBits(buf []byte) []byte {
	return appendPackedBools(buf, b)
}

// LoadBits fills the vector from bit-packed data produced by AppendBits;
// bits must hold at least ceil(len(b)/8) bytes.
func (b Bools) LoadBits(bits []byte) error {
	return loadPackedBools(b, bits)
}

// PackedLen returns the number of bytes a bit-packed vector of n booleans
// occupies on the wire.
func PackedLen(n int) int { return (n + 7) / 8 }

func appendPackedBools(buf []byte, cells []bool) []byte {
	var cur byte
	for i, v := range cells {
		if v {
			cur |= 1 << (uint(i) & 7)
		}
		if i&7 == 7 {
			buf = append(buf, cur)
			cur = 0
		}
	}
	if len(cells)&7 != 0 {
		buf = append(buf, cur)
	}
	return buf
}

func loadPackedBools(cells []bool, bits []byte) error {
	if len(bits) < PackedLen(len(cells)) {
		return fmt.Errorf("packed bools: got %d bytes, need %d", len(bits), PackedLen(len(cells)))
	}
	for i := range cells {
		cells[i] = bits[i>>3]&(1<<(uint(i)&7)) != 0
	}
	return nil
}
