package core

import "github.com/rdt-go/rdt/internal/vclock"

// arena carves the buffers of the piggyback snapshots OnSend hands out —
// the vector and, where the protocol carries them, the simple array and
// the causal matrix — from chunks it allocates, so that one snapshot
// costs slices of chunks instead of allocations of its own. Nothing
// carved is carved again, and a chunk lives as long as anything carved
// from it. The pieces come out unfilled: the protocol's fill writes them.
type arena struct {
	ints  []int
	bools []bool
	words []uint64
	mats  []vclock.Matrix
}

// arenaCopies is how many copies of the largest piece a chunk holds.
const arenaCopies = 64

func (a *arena) vec(n int) vclock.Vec {
	if len(a.ints) < n {
		a.ints = make([]int, arenaCopies*n)
	}
	v := a.ints[:n:n]
	a.ints = a.ints[n:]
	return v
}

func (a *arena) flags(n int) vclock.Bools {
	if len(a.bools) < n {
		a.bools = make([]bool, arenaCopies*n)
	}
	b := a.bools[:n:n]
	a.bools = a.bools[n:]
	return b
}

func (a *arena) matrix(n int) *vclock.Matrix {
	if len(a.mats) == 0 {
		a.mats = make([]vclock.Matrix, arenaCopies)
	}
	m := &a.mats[0]
	a.mats = a.mats[1:]
	w := vclock.MatrixWords(n)
	if len(a.words) < w {
		a.words = make([]uint64, arenaCopies*w)
	}
	m.Bind(n, a.words[:w])
	a.words = a.words[w:]
	return m
}
