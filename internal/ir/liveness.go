package ir

import "xmtgo/internal/bitset"

// Liveness computes per-block live-in/live-out sets with the standard
// backward fixed-point iteration. Results feed dead-code elimination and
// the linear-scan register allocator.
func (f *Func) Liveness() {
	n, words := len(f.Blocks), (f.NumVRegs+63)/64
	// One slab holds every block's gen, kill, live-in and live-out sets.
	slab := make([]uint64, 4*n*words)
	set := func(k int) bitset.Set { return bitset.Set(slab[k*words : (k+1)*words : (k+1)*words]) }
	gen := make([]bitset.Set, n)
	kill := make([]bitset.Set, n)
	succs := make([][]*Block, n)
	var buf []VReg
	for i, b := range f.Blocks {
		g, k := set(4*i), set(4*i+1)
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			buf = in.Uses(buf)
			for _, u := range buf {
				if !k.Has(int(u)) {
					g.Set(int(u))
				}
			}
			if d := in.Def(); d != NoReg {
				k.Set(int(d))
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

// LiveIn exposes a block's live-in set of vregs (after Liveness).
func (b *Block) LiveIn() bitset.Set { return b.liveIn }

// LiveOut exposes a block's live-out set of vregs (after Liveness).
func (b *Block) LiveOut() bitset.Set { return b.liveOut }
