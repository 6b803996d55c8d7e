package rgraph

import "math/bits"

// bitset is a fixed-capacity bit vector used for transitive-closure rows.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) clear(i int)    { b[i>>6] &^= 1 << (uint(i) & 63) }
func (b bitset) get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

func (b bitset) or(other bitset) {
	for i := range b {
		b[i] |= other[i]
	}
}

func (b bitset) count() int {
	total := 0
	for _, w := range b {
		total += bits.OnesCount64(w)
	}
	return total
}
