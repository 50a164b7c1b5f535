package engine

import "math/bits"

// Bitset is a fixed-size set of small non-negative integers, walked in
// ascending order a word at a time. The scheduler keeps one over its
// calendar ring (which buckets hold events); the cycle-accurate ICN and
// shared-cache macro-actors keep theirs over ports and modules (which hold
// work), so an idle bucket, port or module costs nothing to pass over.
type Bitset []uint64

// NewBitset returns an empty set over [0, n).
func NewBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

func (a Bitset) Set(i int)      { a[i>>6] |= 1 << (uint(i) & 63) }
func (a Bitset) Clear(i int)    { a[i>>6] &^= 1 << (uint(i) & 63) }
func (a Bitset) Has(i int) bool { return a[i>>6]>>(uint(i)&63)&1 != 0 }

// Next returns the smallest member >= i, or -1. It reads the live set, so a
// walk `for i := a.Next(0); i >= 0; i = a.Next(i + 1)` may clear the member
// it stands on and sees members added ahead of it.
func (a Bitset) Next(i int) int {
	for w := i >> 6; w < len(a); w++ {
		if word := a[w] >> (uint(i) & 63); word != 0 {
			return i + bits.TrailingZeros64(word)
		}
		i = (w + 1) << 6
	}
	return -1
}
