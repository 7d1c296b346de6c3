package runtime

import "math/bits"

// bitset is a dense bit vector over node IDs, the frontier representation of
// the round loop: set and test are O(1), iteration skips empty words, and
// the word layout lets word-aligned shards write disjoint ranges without
// synchronization.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(v int) { b[v>>6] |= 1 << (uint(v) & 63) }

func (b bitset) get(v int) bool { return b[v>>6]&(1<<(uint(v)&63)) != 0 }

// reset zeroes the whole set (compiles to a memclr; at one bit per node this
// is n/8 bytes — noise next to even a single node's step).
func (b bitset) reset() {
	for i := range b {
		b[i] = 0
	}
}

// setAll sets bits [0, n) and leaves the tail of the last word clear, so
// iteration never sees nodes at or past n.
func (b bitset) setAll(n int) {
	for i := range b {
		b[i] = ^uint64(0)
	}
	if r := uint(n) & 63; r != 0 && len(b) > 0 {
		b[len(b)-1] = ^uint64(0) >> (64 - r)
	}
}

// appendBits appends every set bit of b to out in ascending order.
func (b bitset) appendBits(out []int) []int {
	for wi, w := range b {
		base := wi << 6
		for w != 0 {
			out = append(out, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return out
}
