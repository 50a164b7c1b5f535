// Package bitset is the toolchain's one fixed-size set of small
// non-negative integers, a []uint64 walked in ascending order a word at a
// time. The simulator's scheduler keeps one over its calendar ring (which
// buckets hold events) and the cycle-accurate ICN and shared-cache
// macro-actors theirs over ports and modules (which hold work), so an idle
// bucket, port or module costs nothing to pass over; the compiler's IR
// keeps its live-variable sets in them, and the analyzer's dataflow
// solvers their definition and liveness sets.
package bitset

import "math/bits"

// Set is a set over [0, 64*len(s)).
type Set []uint64

// New returns an empty set over [0, n).
func New(n int) Set { return make(Set, (n+63)/64) }

// Set, Clear and Has take a member of the set's range; the scheduler and
// the cycle engine call them on their hot paths.
func (a Set) Set(i int)      { a[i>>6] |= 1 << (uint(i) & 63) }
func (a Set) Clear(i int)    { a[i>>6] &^= 1 << (uint(i) & 63) }
func (a Set) Has(i int) bool { return a[i>>6]>>(uint(i)&63)&1 != 0 }

// Contains is Has for any i: a value outside the set's range is simply
// not a member.
func (a Set) Contains(i int) bool { return i >= 0 && i>>6 < len(a) && a.Has(i) }

// Next returns the smallest member >= i (i >= 0), or -1. It reads the live
// set, so a walk `for i := a.Next(0); i >= 0; i = a.Next(i + 1)` may clear
// the member it stands on and sees members added ahead of it.
func (a Set) Next(i int) int {
	for w := i >> 6; w < len(a); w++ {
		if word := a[w] >> (uint(i) & 63); word != 0 {
			return i + bits.TrailingZeros64(word)
		}
		i = (w + 1) << 6
	}
	return -1
}

// OrWith unions o, a set of the same size, into a and reports whether a
// changed.
func (a Set) OrWith(o Set) bool {
	changed := false
	for i, w := range o {
		if nw := a[i] | w; nw != a[i] {
			a[i] = nw
			changed = true
		}
	}
	return changed
}

// Clone returns a copy of a.
func (a Set) Clone() Set {
	c := make(Set, len(a))
	copy(c, a)
	return c
}
