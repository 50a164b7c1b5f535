package dataflow

import (
	"xmtgo/internal/bitset"
	"xmtgo/internal/xmtc"
)

// DefSite is one definition tracked by reaching-definitions analysis: either
// a RefDef in some block, or a synthetic entry definition modeling the value
// a parameter or global already holds when the function starts.
type DefSite struct {
	ID     int
	Sym    *xmtc.Symbol
	Block  *Block // nil for entry definitions
	RefIdx int
	Entry  bool
}

// Ref returns the defining reference, or nil for an entry definition.
func (d *DefSite) Ref() *Ref {
	if d.Block == nil {
		return nil
	}
	return &d.Block.Refs[d.RefIdx]
}

// Reach is the reaching-definitions solution for one graph.
type Reach struct {
	g     *Graph
	defs  []*DefSite
	bySym map[*xmtc.Symbol][]*DefSite
	in    []bitset.Set // per block ID: definitions reaching the block entry
}

// ReachingDefs runs forward reaching-definitions analysis. A strong
// definition (whole-scalar write of a symbol whose address is never taken)
// kills prior definitions of the symbol; element and member writes are weak
// (generate, never kill). Calls are ignored: queries about address-taken
// symbols are not supported (callers must consult Graph.AddressTaken).
func (g *Graph) ReachingDefs() *Reach {
	r := &Reach{g: g, bySym: make(map[*xmtc.Symbol][]*DefSite)}
	addDef := func(d *DefSite) *DefSite {
		d.ID = len(r.defs)
		r.defs = append(r.defs, d)
		r.bySym[d.Sym] = append(r.bySym[d.Sym], d)
		return d
	}

	// Entry definitions: parameters and globals hold a value on entry
	// (globals are zero-initialized by the loader, parameters by the call).
	entryDefs := make(map[*xmtc.Symbol]*DefSite)
	for _, blk := range g.Blocks {
		for _, ref := range blk.Refs {
			s := ref.Sym
			if s == nil || entryDefs[s] != nil {
				continue
			}
			if s.Kind == xmtc.SymParam || s.Kind == xmtc.SymGlobal {
				entryDefs[s] = addDef(&DefSite{Sym: s, Entry: true})
			}
		}
	}
	// Real definitions, in traversal order (deterministic IDs).
	for _, blk := range g.Blocks {
		for i := range blk.Refs {
			ref := &blk.Refs[i]
			if ref.Kind == RefDef && ref.Sym != nil {
				addDef(&DefSite{Sym: ref.Sym, Block: blk, RefIdx: i})
			}
		}
	}

	n := len(r.defs)
	gen := make([]bitset.Set, len(g.Blocks))
	kill := make([]bitset.Set, len(g.Blocks))
	out := make([]bitset.Set, len(g.Blocks))
	r.in = make([]bitset.Set, len(g.Blocks))
	defAt := make(map[*Block]map[int]*DefSite)
	for _, d := range r.defs {
		if d.Block != nil {
			m := defAt[d.Block]
			if m == nil {
				m = make(map[int]*DefSite)
				defAt[d.Block] = m
			}
			m[d.RefIdx] = d
		}
	}
	for id, blk := range g.Blocks {
		gen[id], kill[id], out[id], r.in[id] = bitset.New(n), bitset.New(n), bitset.New(n), bitset.New(n)
		for i := range blk.Refs {
			ref := &blk.Refs[i]
			if ref.Kind != RefDef || ref.Sym == nil {
				continue
			}
			d := defAt[blk][i]
			if r.strong(ref) {
				for _, o := range r.bySym[ref.Sym] {
					gen[id].Clear(o.ID)
					kill[id].Set(o.ID)
				}
				kill[id].Clear(d.ID)
			}
			gen[id].Set(d.ID)
		}
	}
	for _, d := range entryDefs {
		r.in[g.Entry.ID].Set(d.ID)
	}

	// Round-robin to a fixpoint; graphs are small and blocks are already in
	// near-topological (traversal) order, so this converges in a few passes.
	for changed := true; changed; {
		changed = false
		for id, blk := range g.Blocks {
			for _, p := range blk.Preds {
				if r.in[id].OrWith(out[p.ID]) {
					changed = true
				}
			}
			for w := range out[id] {
				nw := gen[id][w] | (r.in[id][w] &^ kill[id][w])
				if nw != out[id][w] {
					out[id][w] = nw
					changed = true
				}
			}
		}
	}
	return r
}

// strong reports whether ref is a killing definition of its symbol.
func (r *Reach) strong(ref *Ref) bool {
	return !ref.Weak && !r.g.AddressTaken[ref.Sym]
}

// At returns the definitions of sym reaching the reference at refIdx in blk
// (i.e. just before it executes), in deterministic ID order.
func (r *Reach) At(blk *Block, refIdx int, sym *xmtc.Symbol) []*DefSite {
	live := make(map[int]bool)
	for _, d := range r.bySym[sym] {
		if r.in[blk.ID].Has(d.ID) {
			live[d.ID] = true
		}
	}
	for i := 0; i < refIdx && i < len(blk.Refs); i++ {
		ref := &blk.Refs[i]
		if ref.Kind != RefDef || ref.Sym != sym {
			continue
		}
		if r.strong(ref) {
			live = make(map[int]bool)
		}
		for _, d := range r.bySym[sym] {
			if d.Block == blk && d.RefIdx == i {
				live[d.ID] = true
			}
		}
	}
	var out []*DefSite
	for _, d := range r.bySym[sym] { // bySym is in ID order
		if live[d.ID] {
			out = append(out, d)
		}
	}
	return out
}

// AffineIndex tries to resolve an index expression, evaluated just before
// the reference at refIdx in blk, to the affine form a*$ + c, chasing local
// scalars through their unique reaching definitions. Inside a spawn region
// only region-private locals are chased (a serial-scope local is shared by
// all virtual threads, so its value is not a per-thread function of $).
func (r *Reach) AffineIndex(blk *Block, refIdx int, e xmtc.Expr) (a, c int32, ok bool) {
	return r.affine(blk, refIdx, e, 8)
}

func (r *Reach) affine(blk *Block, refIdx int, e xmtc.Expr, depth int) (a, c int32, ok bool) {
	if e == nil || depth == 0 {
		return 0, 0, false
	}
	if v, isConst := xmtc.FoldConst(e); isConst {
		return 0, v, true
	}
	switch n := e.(type) {
	case *xmtc.TidExpr:
		return 1, 0, true
	case *xmtc.Cast:
		return r.affine(blk, refIdx, n.X, depth)
	case *xmtc.Unary:
		switch n.Op {
		case xmtc.ADD:
			return r.affine(blk, refIdx, n.X, depth)
		case xmtc.SUB:
			if xa, xc, xok := r.affine(blk, refIdx, n.X, depth); xok {
				return -xa, -xc, true
			}
		}
	case *xmtc.Binary:
		xa, xc, xok := r.affine(blk, refIdx, n.X, depth)
		ya, yc, yok := r.affine(blk, refIdx, n.Y, depth)
		if !xok || !yok {
			return 0, 0, false
		}
		switch n.Op {
		case xmtc.ADD:
			return xa + ya, xc + yc, true
		case xmtc.SUB:
			return xa - ya, xc - yc, true
		case xmtc.MUL:
			if xa == 0 {
				return xc * ya, xc * yc, true
			}
			if ya == 0 {
				return xa * yc, xc * yc, true
			}
		}
	case *xmtc.Ident:
		sym := n.Sym
		if sym == nil || sym.Kind != xmtc.SymLocal || r.g.AddressTaken[sym] {
			return 0, 0, false
		}
		if blk.Region != nil && !blk.Region.Private[sym] {
			return 0, 0, false
		}
		ds := r.At(blk, refIdx, sym)
		if len(ds) != 1 || ds[0].Entry {
			return 0, 0, false
		}
		def := ds[0].Ref()
		if def == nil || def.Weak || def.SyncDef || def.Compound || def.RHS == nil || def.RHSCall {
			return 0, 0, false
		}
		return r.affine(ds[0].Block, ds[0].RefIdx, def.RHS, depth-1)
	}
	return 0, 0, false
}

// TidDependent reports whether e, evaluated just before the reference at
// refIdx in blk, carries the thread id *routed through shared data*: it
// reads a global array element whose index is $-dependent — directly, or
// transitively through region-private locals chased by their unique
// reaching definitions (the same discipline and depth as AffineIndex):
//
//	int u = esrc[$];
//	label[u] = ...;   // TidDependent: u came out of shared data at $
//
// Pure arithmetic of $ (shifts, masks, strides — the FFT butterfly index
// pattern) deliberately answers false even though it mentions $: such
// indices express a partition the programmer designed to be disjoint, and
// flagging every unprovable one would bury real findings. A value loaded
// from shared memory at a $-dependent position, by contrast, can collide
// for perfectly ordinary inputs (two edges sharing a vertex), so it is
// the precision worth buying. Any unresolvable link in the chase —
// multiple reaching definitions, a call, a serial-scope local — answers
// false: a true verdict is a proof of data-routed $-dependence, never a
// guess.
func (r *Reach) TidDependent(blk *Block, refIdx int, e xmtc.Expr) bool {
	return r.tidData(blk, refIdx, e, 8)
}

// tidData looks for a global-array load at a $-dependent index anywhere
// inside e, chasing locals through unique reaching definitions.
func (r *Reach) tidData(blk *Block, refIdx int, e xmtc.Expr, depth int) bool {
	if e == nil || depth == 0 {
		return false
	}
	return xmtc.Contains(e, func(x xmtc.Expr) bool {
		switch n := x.(type) {
		case *xmtc.Index:
			sym := xmtc.RootSym(n.X)
			return sym != nil && sym.Kind == xmtc.SymGlobal && r.tidAny(blk, refIdx, n.I, depth-1)
		case *xmtc.Ident:
			def, dblk, didx, ok := r.uniqueDef(blk, refIdx, n.Sym)
			return ok && r.tidData(dblk, didx, def, depth-1)
		}
		return false
	})
}

// tidAny reports plain $-dependence of e in any form (arithmetic included),
// chasing locals through unique reaching definitions.
func (r *Reach) tidAny(blk *Block, refIdx int, e xmtc.Expr, depth int) bool {
	if e == nil || depth == 0 {
		return false
	}
	if xmtc.ContainsTid(e) {
		return true
	}
	return xmtc.Contains(e, func(x xmtc.Expr) bool {
		id, ok := x.(*xmtc.Ident)
		if !ok {
			return false
		}
		def, dblk, didx, ok := r.uniqueDef(blk, refIdx, id.Sym)
		return ok && r.tidAny(dblk, didx, def, depth-1)
	})
}

// uniqueDef resolves a region-private local to the right-hand side of its
// single chaseable reaching definition, mirroring the affine chase's
// eligibility rules.
func (r *Reach) uniqueDef(blk *Block, refIdx int, sym *xmtc.Symbol) (rhs xmtc.Expr, dblk *Block, didx int, ok bool) {
	if sym == nil || sym.Kind != xmtc.SymLocal || r.g.AddressTaken[sym] {
		return nil, nil, 0, false
	}
	if blk.Region != nil && !blk.Region.Private[sym] {
		return nil, nil, 0, false
	}
	ds := r.At(blk, refIdx, sym)
	if len(ds) != 1 || ds[0].Entry {
		return nil, nil, 0, false
	}
	def := ds[0].Ref()
	if def == nil || def.Weak || def.SyncDef || def.Compound || def.RHS == nil || def.RHSCall {
		return nil, nil, 0, false
	}
	return def.RHS, ds[0].Block, ds[0].RefIdx, true
}

// Disjoint reports whether two accesses with affine indices a1*$+c1 and
// a2*$+c2 into the same array can be proven never to touch the same element
// on two *different* virtual threads of region reg. (Same-thread aliasing is
// ordered by program order and cannot race.)
func Disjoint(a1, c1, a2, c2 int32, reg *Region) bool {
	if a1 == 0 && a2 == 0 {
		return c1 != c2
	}
	if a1 == a2 { // equal stride: a*(t-u) == c2-c1
		d := c2 - c1
		if d == 0 {
			return true // same element only when the threads coincide
		}
		if d%a1 != 0 {
			return true
		}
		if reg != nil && reg.BoundsKnown {
			k := int64(d / a1)
			if k < 0 {
				k = -k
			}
			if k > int64(reg.HighConst)-int64(reg.LowConst) {
				return true // required thread-id offset exceeds the range
			}
		}
		return false
	}
	if a1 == 0 || a2 == 0 {
		// One side is a fixed element k, the other a*u+c: they can only
		// collide on the thread u = (k-c)/a, which must exist and (when the
		// bounds are known) lie in [low, high].
		var a, c, k int32
		if a1 == 0 {
			a, c, k = a2, c2, c1
		} else {
			a, c, k = a1, c1, c2
		}
		if (k-c)%a != 0 {
			return true
		}
		if reg != nil && reg.BoundsKnown {
			u := (k - c) / a
			if u < reg.LowConst || u > reg.HighConst {
				return true
			}
		}
		return false
	}
	// Different nonzero strides: with known, modest bounds, scan thread ids
	// for a cross-thread collision; otherwise stay conservative.
	if reg != nil && reg.BoundsKnown {
		lo, hi := int64(reg.LowConst), int64(reg.HighConst)
		if hi >= lo && hi-lo <= 4096 {
			for t := lo; t <= hi; t++ {
				num := int64(a1)*t + int64(c1) - int64(c2)
				if num%int64(a2) != 0 {
					continue
				}
				if u := num / int64(a2); u >= lo && u <= hi && u != t {
					return false
				}
			}
			return true
		}
	}
	return false
}

// Live is the liveness solution for one graph. It is sound only for scalar
// locals whose address is never taken (the only symbols the dead-store
// check queries): globals escape through calls and the function return, and
// address-taken locals through pointers, neither of which is modeled.
type Live struct {
	g   *Graph
	idx map[*xmtc.Symbol]int
	out []bitset.Set // per block ID: symbols live at block exit
}

// Liveness runs backward liveness analysis over all symbols referenced in
// the graph. The spawn region's carried back edge makes a value written by
// one virtual thread and read by another count as live, so dead-store never
// fires on legitimately loop-carried (cross-thread) stores.
func (g *Graph) Liveness() *Live {
	l := &Live{g: g, idx: make(map[*xmtc.Symbol]int)}
	for _, blk := range g.Blocks {
		for i := range blk.Refs {
			if s := blk.Refs[i].Sym; s != nil {
				if _, ok := l.idx[s]; !ok {
					l.idx[s] = len(l.idx)
				}
			}
		}
	}
	n := len(l.idx)
	l.out = make([]bitset.Set, len(g.Blocks))
	in := make([]bitset.Set, len(g.Blocks))
	for id := range g.Blocks {
		l.out[id], in[id] = bitset.New(n), bitset.New(n)
	}
	for changed := true; changed; {
		changed = false
		for id := len(g.Blocks) - 1; id >= 0; id-- {
			blk := g.Blocks[id]
			for _, s := range blk.Succs {
				if l.out[id].OrWith(in[s.ID]) {
					changed = true
				}
			}
			live := l.out[id].Clone()
			for i := len(blk.Refs) - 1; i >= 0; i-- {
				ref := &blk.Refs[i]
				if ref.Sym == nil {
					continue
				}
				si := l.idx[ref.Sym]
				switch ref.Kind {
				case RefDef:
					if !ref.Weak && !g.AddressTaken[ref.Sym] {
						live.Clear(si)
					}
					if ref.Index != nil {
						live.Set(si) // element write reads the base address
					}
				case RefUse:
					live.Set(si)
				}
			}
			if in[id].OrWith(live) {
				changed = true
			}
		}
	}
	return l
}

// DeadAfter reports whether the definition of sym at refIdx in blk is dead:
// no path from just after it reads sym before the next killing write.
func (l *Live) DeadAfter(blk *Block, refIdx int, sym *xmtc.Symbol) bool {
	for i := refIdx + 1; i < len(blk.Refs); i++ {
		ref := &blk.Refs[i]
		if ref.Sym != sym {
			continue
		}
		switch ref.Kind {
		case RefUse:
			return false
		case RefDef:
			if ref.Index != nil {
				return false // element write uses the base
			}
			if !ref.Weak && !l.g.AddressTaken[sym] {
				return true
			}
		}
	}
	si, ok := l.idx[sym]
	return ok && !l.out[blk.ID].Has(si)
}

// Reachable returns, indexed by block ID, whether each block is reachable
// from the function entry.
func (g *Graph) Reachable() []bool {
	seen := make([]bool, len(g.Blocks))
	var walk func(b *Block)
	walk = func(b *Block) {
		if seen[b.ID] {
			return
		}
		seen[b.ID] = true
		for _, s := range b.Succs {
			walk(s)
		}
	}
	if g.Entry != nil {
		walk(g.Entry)
	}
	return seen
}

// CanReach returns, indexed by block ID, whether each block can reach
// target by following successor edges.
func (g *Graph) CanReach(target *Block) []bool {
	seen := make([]bool, len(g.Blocks))
	var walk func(b *Block)
	walk = func(b *Block) {
		if seen[b.ID] {
			return
		}
		seen[b.ID] = true
		for _, p := range b.Preds {
			walk(p)
		}
	}
	if target != nil {
		walk(target)
	}
	return seen
}
