package cycle

import "math/bits"

// activeSet is the set of ports (or modules) of a serial macro-actor that
// may hold work: a multi-word bitset walked in ascending index order, the
// order the all-ports scans it replaces visited in — module service order is
// memory order, so that order is the determinism contract.
//
// Membership is conservative. A member whose queue turns out empty (a
// rollback truncated it, a quiescent checkpoint drained it) is dropped on
// its next visit; a non-empty queue outside its set would never be visited
// again, so every append site sets the bit (TestActiveSetInvariant).
type activeSet []uint64

func newActiveSet(n int) activeSet { return make(activeSet, (n+63)/64) }

func (a activeSet) set(i int)   { a[i>>6] |= 1 << (uint(i) & 63) }
func (a activeSet) clear(i int) { a[i>>6] &^= 1 << (uint(i) & 63) }

// next returns the smallest member >= i, or -1. It reads the live set, so a
// walk `for i := a.next(0); i >= 0; i = a.next(i + 1)` may clear the member
// it stands on and sees members added ahead of it.
func (a activeSet) next(i int) int {
	for w := i >> 6; w < len(a); w++ {
		if word := a[w] >> (uint(i) & 63); word != 0 {
			return i + bits.TrailingZeros64(word)
		}
		i = (w + 1) << 6
	}
	return -1
}
