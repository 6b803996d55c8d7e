package core

import "github.com/rdt-go/rdt/internal/vclock"

// arena carves the copies an instance hands out — the vectors and matrix
// of every piggyback snapshot — from chunks it allocates, so that one
// copy costs a slice of a chunk instead of an allocation of its own.
// Nothing carved is written again, and a chunk lives as long as anything
// carved from it.
type arena struct {
	ints  []int
	bools []bool
	words []uint64
	mats  []vclock.Matrix
}

// arenaCopies is how many copies of the largest piece a chunk holds.
const arenaCopies = 64

func (a *arena) vec(src vclock.Vec) vclock.Vec {
	n := len(src)
	if len(a.ints) < n {
		a.ints = make([]int, arenaCopies*n)
	}
	v := a.ints[:n:n]
	a.ints = a.ints[n:]
	copy(v, src)
	return v
}

func (a *arena) flags(src vclock.Bools) vclock.Bools {
	n := len(src)
	if len(a.bools) < n {
		a.bools = make([]bool, arenaCopies*n)
	}
	b := a.bools[:n:n]
	a.bools = a.bools[n:]
	copy(b, src)
	return b
}

func (a *arena) matrix(src *vclock.Matrix) *vclock.Matrix {
	if len(a.mats) == 0 {
		a.mats = make([]vclock.Matrix, arenaCopies)
	}
	m := &a.mats[0]
	a.mats = a.mats[1:]
	n := vclock.MatrixWords(src.N())
	if len(a.words) < n {
		a.words = make([]uint64, arenaCopies*n)
	}
	w := a.words[:n:n]
	a.words = a.words[n:]
	return src.CloneInto(m, w)
}
