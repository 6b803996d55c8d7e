package vclock

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestVecClone(t *testing.T) {
	v := Vec{1, 2, 3}
	c := v.Clone()
	c[0] = 9
	if v[0] != 1 {
		t.Error("clone aliases original")
	}
}

func TestVecMaxInto(t *testing.T) {
	v := Vec{1, 5, 3}
	v.MaxInto(Vec{2, 4, 3})
	if !v.Equal(Vec{2, 5, 3}) {
		t.Errorf("max = %v", v)
	}
}

func TestVecEqualAndDominated(t *testing.T) {
	if !(Vec{1, 2}).Equal(Vec{1, 2}) {
		t.Error("Equal failed")
	}
	if (Vec{1, 2}).Equal(Vec{1}) {
		t.Error("Equal ignored length")
	}
	if !(Vec{1, 2}).DominatedBy(Vec{1, 3}) {
		t.Error("DominatedBy failed")
	}
	if (Vec{1, 4}).DominatedBy(Vec{1, 3}) {
		t.Error("DominatedBy accepted larger entry")
	}
	if (Vec{1}).DominatedBy(Vec{1, 3}) {
		t.Error("DominatedBy ignored length")
	}
}

func TestVecString(t *testing.T) {
	if got := (Vec{1, 0, 7}).String(); got != "[1 0 7]" {
		t.Errorf("String = %q", got)
	}
}

// genVecs yields two random same-length vectors for quick properties.
func genVecs(r *rand.Rand) (Vec, Vec) {
	n := 1 + r.Intn(8)
	a, b := NewVec(n), NewVec(n)
	for i := 0; i < n; i++ {
		a[i] = r.Intn(10)
		b[i] = r.Intn(10)
	}
	return a, b
}

func TestQuickMaxIntoCommutative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := genVecs(r)
		x := a.Clone()
		x.MaxInto(b)
		y := b.Clone()
		y.MaxInto(a)
		return x.Equal(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMaxIntoIdempotentAndMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := genVecs(r)
		x := a.Clone()
		x.MaxInto(b)
		once := x.Clone()
		x.MaxInto(b)
		return x.Equal(once) && a.DominatedBy(x) && b.DominatedBy(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMaxIntoAssociative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := genVecs(r)
		c, _ := genVecs(r)
		if len(c) != len(a) {
			c = NewVec(len(a))
			for i := range c {
				c[i] = r.Intn(10)
			}
		}
		left := a.Clone()
		left.MaxInto(b)
		left.MaxInto(c)
		bc := b.Clone()
		bc.MaxInto(c)
		right := a.Clone()
		right.MaxInto(bc)
		return left.Equal(right)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBoolsBasics(t *testing.T) {
	b := NewBools(4)
	if b.Any() {
		t.Error("fresh vector should be all false")
	}
	b[2] = true
	if !b.Any() || b.Count() != 1 {
		t.Errorf("Any/Count wrong: %v", b)
	}
	c := b.Clone()
	c[2] = false
	if !b[2] {
		t.Error("clone aliases original")
	}
	b.Reset()
	if b.Any() {
		t.Error("reset left true entries")
	}
}

func TestBoolsString(t *testing.T) {
	b := Bools{false, true, true, false}
	if got := b.String(); got != "0110" {
		t.Errorf("String = %q", got)
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(3)
	if m.N() != 3 {
		t.Fatalf("N = %d", m.N())
	}
	m.Set(1, 2, true)
	if !m.At(1, 2) || m.At(2, 1) {
		t.Error("Set/At wrong")
	}
	c := m.Clone()
	c.Set(0, 0, true)
	if m.At(0, 0) {
		t.Error("clone aliases original")
	}
	if m.Equal(c) {
		t.Error("Equal missed a difference")
	}
	c.Set(0, 0, false)
	if !m.Equal(c) {
		t.Error("Equal failed on equal matrices")
	}
}

func TestIdentityMatrix(t *testing.T) {
	m := IdentityMatrix(3)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			if m.At(r, c) != (r == c) {
				t.Errorf("identity wrong at (%d,%d)", r, c)
			}
		}
	}
}

func TestMatrixRowOps(t *testing.T) {
	src := NewMatrix(3)
	src.Set(1, 0, true)
	src.Set(1, 2, true)

	dst := NewMatrix(3)
	dst.Set(1, 1, true)
	dst.MergeRow(1, src, true)
	if !dst.At(1, 0) || !dst.At(1, 1) || !dst.At(1, 2) {
		t.Errorf("MergeRow keep wrong: %v", dst)
	}

	dst2 := NewMatrix(3)
	dst2.Set(1, 1, true)
	dst2.MergeRow(1, src, false)
	if dst2.At(1, 1) || !dst2.At(1, 0) || !dst2.At(1, 2) {
		t.Errorf("MergeRow copy wrong: %v", dst2)
	}
}

func TestMatrixOrColInto(t *testing.T) {
	m := NewMatrix(3)
	m.Set(0, 1, true) // row 0 has column 1 set
	m.Set(2, 1, true)
	m.OrColInto(2, 1)
	if !m.At(0, 2) || !m.At(2, 2) || m.At(1, 2) {
		t.Errorf("OrColInto wrong:\n%v", m)
	}
}

func TestMatrixClearOps(t *testing.T) {
	m := IdentityMatrix(3)
	m.Set(1, 0, true)
	m.Set(1, 2, true)
	m.ClearRowExcept(1, 1)
	if m.At(1, 0) || !m.At(1, 1) || m.At(1, 2) {
		t.Errorf("ClearRowExcept wrong:\n%v", m)
	}
	m.ClearRowExcept(1, -1)
	if m.At(1, 1) {
		t.Error("ClearRowExcept(-1) kept the diagonal")
	}
	m2 := IdentityMatrix(3)
	m2.ClearDiagonal()
	for k := 0; k < 3; k++ {
		if m2.At(k, k) {
			t.Errorf("diagonal (%d,%d) still set", k, k)
		}
	}
}

func TestMatrixString(t *testing.T) {
	m := IdentityMatrix(2)
	if got := m.String(); got != "10\n01" {
		t.Errorf("String = %q", got)
	}
}

func TestCheckDims(t *testing.T) {
	if err := CheckDims(3, NewVec(3)); err != nil {
		t.Errorf("CheckDims rejected matching length: %v", err)
	}
	if err := CheckDims(3, NewVec(2)); err == nil {
		t.Error("CheckDims accepted mismatched length")
	}
}

func TestQuickOrRowMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(5)
		a, b := NewMatrix(n), NewMatrix(n)
		for i := 0; i < n*n/2; i++ {
			a.Set(r.Intn(n), r.Intn(n), true)
			b.Set(r.Intn(n), r.Intn(n), true)
		}
		row := r.Intn(n)
		merged := a.Clone()
		merged.MergeRow(row, b, true)
		// Every bit of a survives; every bit of b's row appears.
		for c := 0; c < n; c++ {
			if a.At(row, c) && !merged.At(row, c) {
				return false
			}
			if b.At(row, c) && !merged.At(row, c) {
				return false
			}
		}
		// Other rows untouched.
		for rr := 0; rr < n; rr++ {
			if rr == row {
				continue
			}
			for c := 0; c < n; c++ {
				if merged.At(rr, c) != a.At(rr, c) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVecReflectEquality(t *testing.T) {
	// Guards against Vec accidentally becoming a struct: analyses rely on
	// slice semantics for JSON round-trips.
	v := Vec{1, 2}
	if !reflect.DeepEqual([]int(v), []int{1, 2}) {
		t.Error("Vec lost slice semantics")
	}
}

// boolMatrix is the causal matrix as it was before rows were packed into
// words: one bool per cell, row-major. It is the oracle of
// TestMatrixMatchesBoolOracle.
type boolMatrix struct {
	n     int
	cells []bool
}

func newBoolMatrix(n int) *boolMatrix { return &boolMatrix{n: n, cells: make([]bool, n*n)} }

func (m *boolMatrix) At(row, col int) bool     { return m.cells[row*m.n+col] }
func (m *boolMatrix) Set(row, col int, v bool) { m.cells[row*m.n+col] = v }

func (m *boolMatrix) Bind(n int, cells []bool) *boolMatrix {
	m.n, m.cells = n, cells[:n*n:n*n]
	return m
}

func (m *boolMatrix) CopyFrom(src *boolMatrix) { copy(m.cells, src.cells) }

func (m *boolMatrix) Equal(other *boolMatrix) bool {
	return m.n == other.n && reflect.DeepEqual(m.cells, other.cells)
}

func (m *boolMatrix) CopyRow(row int, src *boolMatrix) {
	copy(m.cells[row*m.n:(row+1)*m.n], src.cells[row*src.n:(row+1)*src.n])
}

func (m *boolMatrix) OrRow(row int, src *boolMatrix) {
	dst := m.cells[row*m.n : (row+1)*m.n]
	s := src.cells[row*src.n : (row+1)*src.n]
	for k := range dst {
		dst[k] = dst[k] || s[k]
	}
}

func (m *boolMatrix) OrColInto(dstCol, srcCol int) {
	for l := 0; l < m.n; l++ {
		if m.cells[l*m.n+srcCol] {
			m.cells[l*m.n+dstCol] = true
		}
	}
}

func (m *boolMatrix) ClearRowExcept(row, keep int) {
	for c := 0; c < m.n; c++ {
		if c != keep {
			m.cells[row*m.n+c] = false
		}
	}
}

func (m *boolMatrix) ClearDiagonal() {
	for k := 0; k < m.n; k++ {
		m.Set(k, k, false)
	}
}

func (m *boolMatrix) Reuse(n int) *boolMatrix {
	if m == nil {
		return newBoolMatrix(n)
	}
	m.n, m.cells = n, append(m.cells[:0], make([]bool, n*n)...)
	return m
}

func (m *boolMatrix) String() string {
	return Bools(m.cells).String()
}

func (m *boolMatrix) AppendBits(buf []byte) []byte {
	var cur byte
	for i, v := range m.cells {
		if v {
			cur |= 1 << (uint(i) & 7)
		}
		if i&7 == 7 {
			buf = append(buf, cur)
			cur = 0
		}
	}
	if len(m.cells)&7 != 0 {
		buf = append(buf, cur)
	}
	return buf
}

func (m *boolMatrix) LoadBits(bits []byte) error {
	if len(bits) < PackedLen(len(m.cells)) {
		return fmt.Errorf("packed bools: got %d bytes, need %d", len(bits), PackedLen(len(m.cells)))
	}
	for i := range m.cells {
		m.cells[i] = bits[i>>3]&(1<<(uint(i)&7)) != 0
	}
	return nil
}

// rowsString renders a matrix string without its row breaks, the form
// boolMatrix.String gives.
func rowsString(m *Matrix) string { return strings.ReplaceAll(m.String(), "\n", "") }

// TestMatrixMatchesBoolOracle drives word matrices and bool matrices
// through the same random operations, at widths around the word and byte
// boundaries, and requires the same cells, equality and wire bytes after
// every step. Half the rows and columns it picks sit at a word's edge,
// and refills keep the matrices from filling up with ones, so column
// operations across words see differing bits.
func TestMatrixMatchesBoolOracle(t *testing.T) {
	var scratch *Matrix // reused across widths, like a codec's decode scratch
	var oscratch *boolMatrix
	for _, n := range []int{1, 2, 7, 8, 63, 64, 65, 130, 8, 1} {
		rng := rand.New(rand.NewSource(int64(n)))
		var edges []int
		for _, c := range []int{0, 63, 64, 127, 128, n - 1} {
			if c < n {
				edges = append(edges, c)
			}
		}
		pick := func() int {
			if rng.Intn(2) == 0 {
				return edges[rng.Intn(len(edges))]
			}
			return rng.Intn(n)
		}
		ms := []*Matrix{NewMatrix(n), IdentityMatrix(n)}
		os := []*boolMatrix{newBoolMatrix(n), newBoolMatrix(n)}
		for k := 0; k < n; k++ {
			os[1].Set(k, k, true)
		}
		for c := 0; c < n*n; c++ { // half the cells of the first pair set
			if rng.Intn(2) == 0 {
				ms[0].Set(c/n, c%n, true)
				os[0].Set(c/n, c%n, true)
			}
		}
		for step := 0; step < 400; step++ {
			a, b := rng.Intn(2), rng.Intn(2)
			row, col := pick(), pick()
			var op string
			switch rng.Intn(11) {
			case 0, 1:
				op = "Set"
				v := rng.Intn(3) > 0
				ms[a].Set(row, col, v)
				os[a].Set(row, col, v)
			case 2:
				op = "MergeRow copy"
				ms[a].MergeRow(row, ms[b], false)
				os[a].CopyRow(row, os[b])
			case 3:
				op = "MergeRow keep"
				ms[a].MergeRow(row, ms[b], true)
				os[a].OrRow(row, os[b])
			case 4:
				op = "OrColInto"
				src := pick()
				ms[a].OrColInto(col, src)
				os[a].OrColInto(col, src)
			case 5:
				op = "ClearRowExcept"
				keep := rng.Intn(n+1) - 1
				ms[a].ClearRowExcept(row, keep)
				os[a].ClearRowExcept(row, keep)
			case 6:
				op = "ClearDiagonal"
				ms[a].ClearDiagonal()
				os[a].ClearDiagonal()
			case 7:
				op = "Reuse"
				ms[a] = ms[a].Reuse(n)
				os[a] = os[a].Reuse(n)
			case 8:
				op = "Bind+CopyFrom"
				// Bound over stale words, which CopyFrom must overwrite.
				spare := rng.Intn(3)
				words := make([]uint64, MatrixWords(n)+spare)
				for i := range words {
					words[i] = rng.Uint64()
				}
				cells := make([]bool, n*n+spare)
				for i := range cells {
					cells[i] = rng.Intn(2) == 0
				}
				mb, ob := new(Matrix).Bind(n, words), new(boolMatrix).Bind(n, cells)
				mb.CopyFrom(ms[b])
				ob.CopyFrom(os[b])
				ms[a], os[a] = mb, ob
				if a != b { // the copy must not alias its source
					ms[a].Set(row, col, !ms[a].At(row, col))
					os[a].Set(row, col, !os[a].At(row, col))
				}
			case 9:
				op = "Refill"
				for c := 0; c < n*n; c++ {
					v := rng.Intn(2) == 0
					ms[a].Set(c/n, c%n, v)
					os[a].Set(c/n, c%n, v)
				}
			default:
				op = "At"
			}
			for i := range ms {
				if got, want := ms[i].At(row, col), os[i].At(row, col); got != want {
					t.Fatalf("n=%d step %d %s: At(%d,%d) = %v, oracle %v", n, step, op, row, col, got, want)
				}
				if got, want := rowsString(ms[i]), os[i].String(); got != want {
					t.Fatalf("n=%d step %d %s: matrix %d\n%s\noracle\n%s", n, step, op, i, got, want)
				}
				bits := ms[i].AppendBits([]byte{0xA5})
				if want := os[i].AppendBits([]byte{0xA5}); !bytes.Equal(bits, want) {
					t.Fatalf("n=%d step %d %s: AppendBits %x, oracle %x", n, step, op, bits, want)
				}
				scratch = scratch.Reuse(n)
				oscratch = oscratch.Reuse(n)
				if err := scratch.LoadBits(bits[1:]); err != nil {
					t.Fatalf("n=%d step %d %s: LoadBits: %v", n, step, op, err)
				}
				if err := oscratch.LoadBits(bits[1:]); err != nil {
					t.Fatal(err)
				}
				if !scratch.Equal(ms[i]) || !oscratch.Equal(os[i]) {
					t.Fatalf("n=%d step %d %s: LoadBits round trip lost cells", n, step, op)
				}
			}
			if got, want := ms[0].Equal(ms[1]), os[0].Equal(os[1]); got != want {
				t.Fatalf("n=%d step %d %s: Equal = %v, oracle %v", n, step, op, got, want)
			}
		}
		if err := NewMatrix(n).LoadBits(make([]byte, PackedLen(n*n)-1)); err == nil {
			t.Errorf("n=%d: LoadBits accepted a short buffer", n)
		}
	}
}
