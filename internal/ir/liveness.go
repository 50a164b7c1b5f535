package ir

import "math/bits"

// VRegSet is a set of virtual registers: a bitset indexed by VReg, sized
// for its function's NumVRegs. Members iterate in ascending order:
//
//	for v := s.Next(0); v != NoReg; v = s.Next(v + 1) { ... }
type VRegSet []uint64

// NewVRegSet returns an empty set for the vregs [0, n).
func NewVRegSet(n int) VRegSet { return make(VRegSet, (n+63)/64) }

// Has reports whether v is in s; a vreg outside the set's range is not.
func (s VRegSet) Has(v VReg) bool {
	w := int(v) >> 6
	return v >= 0 && w < len(s) && s[w]&(1<<(uint(v)&63)) != 0
}

// Add puts v, which must be in the set's range, into s.
func (s VRegSet) Add(v VReg) { s[v>>6] |= 1 << (uint(v) & 63) }

// Next returns the least member of s not below v, or NoReg.
func (s VRegSet) Next(v VReg) VReg {
	v = max(v, 0)
	w := int(v) >> 6
	if w >= len(s) {
		return NoReg
	}
	if rest := s[w] >> (uint(v) & 63); rest != 0 {
		return v + VReg(bits.TrailingZeros64(rest))
	}
	for w++; w < len(s); w++ {
		if s[w] != 0 {
			return VReg(w<<6 + bits.TrailingZeros64(s[w]))
		}
	}
	return NoReg
}

// Liveness computes per-block live-in/live-out sets with the standard
// backward fixed-point iteration. Results feed dead-code elimination and
// the linear-scan register allocator.
func (f *Func) Liveness() {
	n, words := len(f.Blocks), (f.NumVRegs+63)/64
	// One slab holds every block's gen, kill, live-in and live-out sets.
	slab := make([]uint64, 4*n*words)
	set := func(k int) VRegSet { return VRegSet(slab[k*words : (k+1)*words : (k+1)*words]) }
	gen := make([]VRegSet, n)
	kill := make([]VRegSet, n)
	succs := make([][]*Block, n)
	var buf []VReg
	for i, b := range f.Blocks {
		g, k := set(4*i), set(4*i+1)
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			buf = in.Uses(buf)
			for _, u := range buf {
				if !k.Has(u) {
					g.Add(u)
				}
			}
			if d := in.Def(); d != NoReg {
				k.Add(d)
			}
		}
		gen[i], kill[i], succs[i] = g, k, f.Succs(i)
		b.liveIn, b.liveOut = set(4*i+2), set(4*i+3)
	}
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			in, out := f.Blocks[i].liveIn, f.Blocks[i].liveOut
			clear(out)
			for _, s := range succs[i] {
				for w, x := range s.liveIn {
					out[w] |= x
				}
			}
			for w := range in {
				if x := gen[i][w] | out[w]&^kill[i][w]; x != in[w] {
					in[w] = x
					changed = true
				}
			}
		}
	}
}

// LiveIn exposes a block's live-in set (after Liveness).
func (b *Block) LiveIn() VRegSet { return b.liveIn }

// LiveOut exposes a block's live-out set (after Liveness).
func (b *Block) LiveOut() VRegSet { return b.liveOut }
