package codegen

import (
	"xmtgo/internal/ir"
)

// XMT-specific optimizations (paper §IV-C).

// nonBlockingStores replaces eligible word stores in parallel code with
// non-blocking stores. Because the compiler already fences before every
// prefix-sum and the spawn end drains pending stores, every non-volatile
// word store inside a spawn region is eligible; the TCU then overlaps the
// store's shared-memory round trip with computation.
func nonBlockingStores(f *ir.Func) int {
	n := 0
	for _, b := range f.Blocks {
		if b.SpawnID == 0 {
			continue
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.Store && in.Size == 4 && !in.Volatile && !in.NB {
				in.NB = true
				n++
			}
		}
	}
	return n
}

// insertPrefetches hoists prefetches for loads whose addresses are
// computable at virtual-thread start — i.e. derivable from the grabbed
// thread id and broadcast values through pure arithmetic (the common
// A[f($)] pattern). The address chain is cloned right after chkid so the
// prefetch overlaps the thread body's leading computation; the later load
// then hits the TCU prefetch buffer (paper §IV-C, [8]).
//
// maxPerThread caps insertions at the prefetch buffer capacity.
func insertPrefetches(f *ir.Func, maxPerThread int) int {
	if maxPerThread <= 0 {
		return 0
	}
	total := 0
	for bi, b := range f.Blocks {
		if b.SpawnID == 0 {
			continue
		}
		// Region entry block: previous block is outside the region.
		if bi > 0 && f.Blocks[bi-1].SpawnID == b.SpawnID {
			continue
		}
		total += prefetchRegion(f, bi, maxPerThread)
	}
	return total
}

func prefetchRegion(f *ir.Func, entry int, maxPerThread int) int {
	id := f.Blocks[entry].SpawnID

	// Collect region blocks and definition counts.
	defCount := make(map[ir.VReg]int)
	defInstr := make(map[ir.VReg]*ir.Instr)
	var region []*ir.Block
	for bi := entry; bi < len(f.Blocks) && f.Blocks[bi].SpawnID == id; bi++ {
		b := f.Blocks[bi]
		region = append(region, b)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if d := in.Def(); d != ir.NoReg {
				defCount[d]++
				defInstr[d] = in
			}
		}
	}
	if len(region) == 0 {
		return 0
	}
	grab := region[0]
	// Find the chkid position in the entry block.
	chkidIdx := -1
	var tid ir.VReg = ir.NoReg
	for i := range grab.Instrs {
		if grab.Instrs[i].Op == ir.Chkid {
			chkidIdx = i
			tid = grab.Instrs[i].A
			break
		}
	}
	if chkidIdx < 0 {
		return 0
	}

	// "early" vregs: single-def values derivable from the thread id,
	// broadcast live-ins, and constants through pure arithmetic.
	early := make(map[ir.VReg]bool)
	early[tid] = true
	for v := grab.LiveIn().Next(0); v >= 0; v = grab.LiveIn().Next(v + 1) {
		early[ir.VReg(v)] = true
	}
	var isEarly func(v ir.VReg, depth int) bool
	isEarly = func(v ir.VReg, depth int) bool {
		if early[v] {
			return true
		}
		if depth > 8 || defCount[v] != 1 {
			return false
		}
		in := defInstr[v]
		if in == nil {
			return false
		}
		switch in.Op {
		case ir.LdImm, ir.LdSym:
			return true
		case ir.AddImm, ir.ShlImm, ir.SarImm, ir.ShrImm, ir.AndImm, ir.OrImm, ir.XorImm, ir.Mov:
			return isEarly(in.A, depth+1)
		case ir.Add, ir.Sub, ir.Mul, ir.Shl:
			return isEarly(in.A, depth+1) && isEarly(in.B, depth+1)
		}
		return false
	}

	// Clone an early chain at the insertion point, returning the new vreg.
	var inserted []ir.Instr
	cloned := make(map[ir.VReg]ir.VReg)
	var clone func(v ir.VReg) ir.VReg
	clone = func(v ir.VReg) ir.VReg {
		if early[v] {
			return v // already available at entry
		}
		if nv, ok := cloned[v]; ok {
			return nv
		}
		in := *defInstr[v]
		switch in.Op {
		case ir.LdImm, ir.LdSym:
		case ir.AddImm, ir.ShlImm, ir.SarImm, ir.ShrImm, ir.AndImm, ir.OrImm, ir.XorImm, ir.Mov:
			in.A = clone(in.A)
		default:
			in.A = clone(in.A)
			in.B = clone(in.B)
		}
		nv := f.NewVReg()
		in.Dst = nv
		cloned[v] = nv
		inserted = append(inserted, in)
		return nv
	}

	// Scan region loads, capped at the prefetch buffer capacity.
	type target struct {
		base ir.VReg
		off  int32
		line int
	}
	var targets []target
	seen := make(map[target]bool)
	for _, b := range region {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op != ir.Load || in.Volatile || in.Size != 4 {
				continue
			}
			if !isEarly(in.A, 0) {
				continue
			}
			t := target{base: in.A, off: in.Imm, line: in.Line}
			if seen[t] || len(targets) >= maxPerThread {
				continue
			}
			seen[t] = true
			targets = append(targets, t)
		}
	}
	if len(targets) == 0 {
		return 0
	}

	count := 0
	var prefs []ir.Instr
	for _, t := range targets {
		base := clone(t.base)
		prefs = append(prefs, ir.Instr{Op: ir.Pref, A: base, Imm: t.off, B: ir.NoReg, Dst: ir.NoReg, Line: t.line})
		count++
	}

	// Splice: grab.Instrs[:chkid+1] ++ inserted ++ prefs ++ rest.
	rest := append([]ir.Instr(nil), grab.Instrs[chkidIdx+1:]...)
	out := append([]ir.Instr(nil), grab.Instrs[:chkidIdx+1]...)
	out = append(out, inserted...)
	out = append(out, prefs...)
	out = append(out, rest...)
	grab.Instrs = out
	return count
}
