package ir

import (
	"math"

	"xmtgo/internal/bitset"
)

// Optimize runs the core-pass optimization pipeline: local value numbering
// (constant folding, algebraic simplification, copy propagation, common
// subexpression and redundant-load elimination), branch folding,
// unreachable-code removal and global dead-code elimination. All memory
// optimizations are local to a basic block and never cross a barrier
// instruction, which structurally enforces the XMT memory model's rule
// that memory operations do not move across prefix-sums (paper §IV-A).
func (f *Func) Optimize(level int) {
	if level <= 0 {
		return
	}
	var t lvnTables
	for round := 0; round < 3; round++ {
		for _, b := range f.Blocks {
			f.lvnBlock(b, &t)
		}
		f.foldBranches()
		f.removeUnreachable()
		f.dce()
	}
}

type exprKey struct {
	op   Op
	a, b VReg
	imm  int32
	sym  string
	g    uint8
}

type loadKey struct {
	base VReg
	off  int32
	size uint8
	ro   bool
}

// lvnTables are local value numbering's tables. Optimize keeps one set
// for every block of every round; lvnBlock clears it for each block.
type lvnTables struct {
	consts map[VReg]int32
	copies map[VReg]VReg
	exprs  map[exprKey]VReg
	loads  map[loadKey]VReg
	// held has every vreg that a copies value, an exprs or loads key
	// operand or value holds, so redefining any other vreg scans nothing.
	held bitset.Set
}

// lvnBlock performs local value numbering on one block.
func (f *Func) lvnBlock(b *Block, t *lvnTables) {
	if t.consts == nil {
		*t = lvnTables{make(map[VReg]int32), make(map[VReg]VReg), make(map[exprKey]VReg), make(map[loadKey]VReg),
			bitset.New(f.NumVRegs)}
	}
	consts, copies, exprs, loads, held := t.consts, t.copies, t.exprs, t.loads, t.held
	clear(consts)
	clear(copies)
	clear(exprs)
	clear(loads)
	clear(held)
	hold := func(vs ...VReg) {
		for _, v := range vs {
			if v != NoReg {
				held.Set(int(v))
			}
		}
	}
	setCopy := func(dst, src VReg) {
		copies[dst] = src
		hold(src)
	}
	setExpr := func(k exprKey, v VReg) {
		exprs[k] = v
		hold(k.a, k.b, v)
	}
	setLoad := func(k loadKey, v VReg) {
		loads[k] = v
		hold(k.base, v)
	}

	canon := func(v VReg) VReg {
		for {
			c, ok := copies[v]
			if !ok {
				return v
			}
			v = c
		}
	}
	invalidate := func(v VReg) {
		// v is redefined: drop every table entry mentioning it.
		delete(consts, v)
		delete(copies, v)
		if !held.Contains(int(v)) {
			return
		}
		for k, val := range exprs {
			if k.a == v || k.b == v || val == v {
				delete(exprs, k)
			}
		}
		for k, val := range loads {
			if k.base == v || val == v {
				delete(loads, k)
			}
		}
		for from, to := range copies {
			if to == v {
				delete(copies, from)
			}
		}
	}
	clobberMemory := func() {
		clear(loads)
	}

	out := b.Instrs[:0]
	for idx := range b.Instrs {
		in := b.Instrs[idx]
		// Canonicalize operands through copies.
		if in.Op != Call {
			if in.A != NoReg {
				in.A = canon(in.A)
			}
			if in.B != NoReg {
				in.B = canon(in.B)
			}
		} else {
			for i := range in.CallArgs {
				in.CallArgs[i] = canon(in.CallArgs[i])
			}
		}

		// Constant folding and algebraic simplification.
		in = f.simplify(in, consts)

		// CSE for pure value-producing instructions.
		cseable := false
		var key exprKey
		switch in.Op {
		case LdImm:
			// Reuse an existing constant register when available.
			key = exprKey{op: LdImm, imm: in.Imm}
			cseable = true
		case LdSym:
			key = exprKey{op: LdSym, sym: in.Sym}
			cseable = true
		case FrameAddr:
			key = exprKey{op: FrameAddr, imm: in.Imm}
			cseable = true
		case Add, Sub, Mul, And, Or, Xor, Nor, Shl, Shr, Sar, SltS, SltU,
			FAdd, FSub, FMul, FNeg, FAbs, CvtIF, CvtFI, FEq, FLt, FLe:
			key = exprKey{op: in.Op, a: in.A, b: in.B}
			cseable = true
		case AddImm, AndImm, OrImm, XorImm, ShlImm, ShrImm, SarImm, SltImm, SltUImm:
			key = exprKey{op: in.Op, a: in.A, imm: in.Imm}
			cseable = true
		case Div, DivU, Rem, RemU, FDiv, FSqrt:
			// May trap or be expensive but are pure given same operands.
			key = exprKey{op: in.Op, a: in.A, b: in.B}
			cseable = true
		}
		if cseable {
			if prev, ok := exprs[key]; ok && prev != in.Dst {
				invalidate(in.Dst)
				setCopy(in.Dst, prev)
				if c, ok := consts[prev]; ok {
					consts[in.Dst] = c
				}
				out = append(out, Instr{Op: Mov, Dst: in.Dst, A: prev, Line: in.Line})
				continue
			}
		}

		switch in.Op {
		case Mov:
			if in.A == in.Dst {
				continue // self-move
			}
			invalidate(in.Dst)
			setCopy(in.Dst, in.A)
			if c, ok := consts[in.A]; ok {
				consts[in.Dst] = c
			}
		case LdImm:
			invalidate(in.Dst)
			consts[in.Dst] = in.Imm
			setExpr(exprKey{op: LdImm, imm: in.Imm}, in.Dst)
		case Load, LoadRO:
			lk := loadKey{base: in.A, off: in.Imm, size: in.Size, ro: in.Op == LoadRO}
			if !in.Volatile {
				if prev, ok := loads[lk]; ok && prev != in.Dst {
					invalidate(in.Dst)
					setCopy(in.Dst, prev)
					out = append(out, Instr{Op: Mov, Dst: in.Dst, A: prev, Line: in.Line})
					continue
				}
			}
			invalidate(in.Dst)
			if !in.Volatile {
				setLoad(lk, in.Dst)
			}
		case Store:
			// A store invalidates all remembered loads (no alias analysis)
			// but makes its own value forwardable.
			clobberMemory()
			if !in.Volatile && in.Size == 4 {
				setLoad(loadKey{base: in.A, off: in.Imm, size: 4}, in.B)
			}
		default:
			if in.IsBarrier() {
				clobberMemory()
			}
			if d := in.Def(); d != NoReg {
				invalidate(d)
			}
		}
		if cseable {
			if d := in.Def(); d != NoReg {
				setExpr(key, d)
			}
		}
		out = append(out, in)
	}
	b.Instrs = out
}

// simplify folds constants and applies strength reduction to a single
// instruction, given the known-constants map.
func (f *Func) simplify(in Instr, consts map[VReg]int32) Instr {
	cA, okA := consts[in.A]
	cB, okB := consts[in.B]
	imm := func(v int32) Instr {
		return Instr{Op: LdImm, Dst: in.Dst, Imm: v, A: NoReg, B: NoReg, Line: in.Line}
	}
	fitsImm16 := func(v int32) bool { return v >= -32768 && v <= 32767 }

	switch in.Op {
	case Add, Sub, Mul, And, Or, Xor, Shl, Shr, Sar, SltS, SltU:
		if okA && okB {
			if v, ok := evalInt(in.Op, cA, cB); ok {
				return imm(v)
			}
		}
		// Immediate forms and strength reduction.
		switch in.Op {
		case Add:
			if okB && fitsImm16(cB) {
				return Instr{Op: AddImm, Dst: in.Dst, A: in.A, Imm: cB, B: NoReg, Line: in.Line}
			}
			if okA && fitsImm16(cA) {
				return Instr{Op: AddImm, Dst: in.Dst, A: in.B, Imm: cA, B: NoReg, Line: in.Line}
			}
		case Sub:
			if okB && fitsImm16(-cB) && cB != math.MinInt32 {
				return Instr{Op: AddImm, Dst: in.Dst, A: in.A, Imm: -cB, B: NoReg, Line: in.Line}
			}
		case Mul:
			if okB {
				if sh, ok := powerOfTwo(cB); ok {
					return Instr{Op: ShlImm, Dst: in.Dst, A: in.A, Imm: sh, B: NoReg, Line: in.Line}
				}
			}
			if okA {
				if sh, ok := powerOfTwo(cA); ok {
					return Instr{Op: ShlImm, Dst: in.Dst, A: in.B, Imm: sh, B: NoReg, Line: in.Line}
				}
			}
		case And:
			if okB && cB >= 0 && cB <= 0xffff {
				return Instr{Op: AndImm, Dst: in.Dst, A: in.A, Imm: cB, B: NoReg, Line: in.Line}
			}
		case Or:
			if okB && cB >= 0 && cB <= 0xffff {
				return Instr{Op: OrImm, Dst: in.Dst, A: in.A, Imm: cB, B: NoReg, Line: in.Line}
			}
		case Xor:
			if okB && cB >= 0 && cB <= 0xffff {
				return Instr{Op: XorImm, Dst: in.Dst, A: in.A, Imm: cB, B: NoReg, Line: in.Line}
			}
		case Shl:
			if okB {
				return Instr{Op: ShlImm, Dst: in.Dst, A: in.A, Imm: cB & 31, B: NoReg, Line: in.Line}
			}
		case Shr:
			if okB {
				return Instr{Op: ShrImm, Dst: in.Dst, A: in.A, Imm: cB & 31, B: NoReg, Line: in.Line}
			}
		case Sar:
			if okB {
				return Instr{Op: SarImm, Dst: in.Dst, A: in.A, Imm: cB & 31, B: NoReg, Line: in.Line}
			}
		case SltS:
			if okB && fitsImm16(cB) {
				return Instr{Op: SltImm, Dst: in.Dst, A: in.A, Imm: cB, B: NoReg, Line: in.Line}
			}
		case SltU:
			if okB && fitsImm16(cB) {
				return Instr{Op: SltUImm, Dst: in.Dst, A: in.A, Imm: cB, B: NoReg, Line: in.Line}
			}
		}
	case AddImm:
		if okA {
			return imm(cA + in.Imm)
		}
		if in.Imm == 0 {
			return Instr{Op: Mov, Dst: in.Dst, A: in.A, B: NoReg, Line: in.Line}
		}
	case AndImm:
		if okA {
			return imm(cA & in.Imm)
		}
	case OrImm:
		if okA {
			return imm(cA | in.Imm)
		}
		if in.Imm == 0 {
			return Instr{Op: Mov, Dst: in.Dst, A: in.A, B: NoReg, Line: in.Line}
		}
	case XorImm:
		if okA {
			return imm(cA ^ in.Imm)
		}
	case ShlImm:
		if okA {
			return imm(cA << uint(in.Imm&31))
		}
		if in.Imm == 0 {
			return Instr{Op: Mov, Dst: in.Dst, A: in.A, B: NoReg, Line: in.Line}
		}
	case ShrImm:
		if okA {
			return imm(int32(uint32(cA) >> uint(in.Imm&31)))
		}
	case SarImm:
		if okA {
			return imm(cA >> uint(in.Imm&31))
		}
	case SltImm:
		if okA {
			return imm(b2i(cA < in.Imm))
		}
	case SltUImm:
		if okA {
			return imm(b2i(uint32(cA) < uint32(in.Imm)))
		}
	case Div, DivU, Rem, RemU:
		if okA && okB && cB != 0 {
			if v, ok := evalInt(in.Op, cA, cB); ok {
				return imm(v)
			}
		}
		// Unsigned divide/modulo by a power of two.
		if okB {
			if sh, ok := powerOfTwo(cB); ok {
				switch in.Op {
				case DivU:
					return Instr{Op: ShrImm, Dst: in.Dst, A: in.A, Imm: sh, B: NoReg, Line: in.Line}
				case RemU:
					mask := cB - 1
					if mask >= 0 && mask <= 0xffff {
						return Instr{Op: AndImm, Dst: in.Dst, A: in.A, Imm: mask, B: NoReg, Line: in.Line}
					}
				}
			}
		}
	case FAdd, FSub, FMul, FDiv, FEq, FLt, FLe:
		if okA && okB {
			if v, ok := evalFloat(in.Op, cA, cB); ok {
				return imm(v)
			}
		}
	case FNeg:
		if okA {
			return imm(int32(math.Float32bits(-math.Float32frombits(uint32(cA)))))
		}
	case CvtIF:
		if okA {
			return imm(int32(math.Float32bits(float32(cA))))
		}
	case CvtFI:
		if okA {
			return imm(int32(math.Float32frombits(uint32(cA))))
		}
	}
	return in
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

func powerOfTwo(v int32) (int32, bool) {
	if v <= 0 || v&(v-1) != 0 {
		return 0, false
	}
	var sh int32
	for v > 1 {
		v >>= 1
		sh++
	}
	return sh, true
}

func evalInt(op Op, a, b int32) (int32, bool) {
	switch op {
	case Add:
		return a + b, true
	case Sub:
		return a - b, true
	case Mul:
		return a * b, true
	case Div:
		if b == 0 {
			return 0, false
		}
		return a / b, true
	case DivU:
		if b == 0 {
			return 0, false
		}
		return int32(uint32(a) / uint32(b)), true
	case Rem:
		if b == 0 {
			return 0, false
		}
		return a % b, true
	case RemU:
		if b == 0 {
			return 0, false
		}
		return int32(uint32(a) % uint32(b)), true
	case And:
		return a & b, true
	case Or:
		return a | b, true
	case Xor:
		return a ^ b, true
	case Nor:
		return ^(a | b), true
	case Shl:
		return a << uint(b&31), true
	case Shr:
		return int32(uint32(a) >> uint(b&31)), true
	case Sar:
		return a >> uint(b&31), true
	case SltS:
		return b2i(a < b), true
	case SltU:
		return b2i(uint32(a) < uint32(b)), true
	}
	return 0, false
}

func evalFloat(op Op, a, b int32) (int32, bool) {
	x := math.Float32frombits(uint32(a))
	y := math.Float32frombits(uint32(b))
	fb := func(f float32) (int32, bool) { return int32(math.Float32bits(f)), true }
	switch op {
	case FAdd:
		return fb(x + y)
	case FSub:
		return fb(x - y)
	case FMul:
		return fb(x * y)
	case FDiv:
		return fb(x / y)
	case FEq:
		return b2i(x == y), true
	case FLt:
		return b2i(x < y), true
	case FLe:
		return b2i(x <= y), true
	}
	return 0, false
}

// foldBranches resolves branches with known outcomes (after lvn turned
// operands into shared constant registers where possible, a Br comparing a
// register against itself is also folded).
func (f *Func) foldBranches() {
	for _, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			continue
		}
		last := &b.Instrs[len(b.Instrs)-1]
		if last.Op != Br {
			continue
		}
		if last.Cond == BrEQ && last.A == last.B {
			*last = Instr{Op: Jmp, Target: last.Target, A: NoReg, B: NoReg, Line: last.Line}
		}
		if last.Cond == BrNE && last.A == last.B {
			b.Instrs = b.Instrs[:len(b.Instrs)-1]
		}
	}
}

// removeUnreachable drops blocks not reachable from the entry.
func (f *Func) removeUnreachable() {
	if len(f.Blocks) == 0 {
		return
	}
	reach := make(map[*Block]bool)
	var stack []*Block
	push := func(b *Block) {
		if !reach[b] {
			reach[b] = true
			stack = append(stack, b)
		}
	}
	index := make(map[*Block]int, len(f.Blocks))
	for i, b := range f.Blocks {
		index[b] = i
	}
	push(f.Blocks[0])
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range f.Succs(index[b]) {
			push(s)
		}
	}
	var kept []*Block
	for _, b := range f.Blocks {
		if reach[b] {
			kept = append(kept, b)
		}
	}
	// Re-check fallthrough correctness: if a removed block separated two
	// kept blocks, the predecessor must have been terminated (otherwise it
	// fell through into an unreachable block, which cannot happen).
	f.Blocks = kept
	for i, b := range f.Blocks {
		b.ID = i
	}
}

// dce removes pure instructions whose results are never used, using a
// fixed-point over the non-SSA def/use relation.
func (f *Func) dce() {
	needed := bitset.New(f.NumVRegs)
	changed := true
	var buf []VReg
	for changed {
		changed = false
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				live := in.HasSideEffects() || in.Op == Jmp || in.Op == Br || in.Op == Ret
				if d := in.Def(); d != NoReg && needed.Contains(int(d)) {
					live = true
				}
				if !live {
					continue
				}
				buf = in.Uses(buf)
				for _, u := range buf {
					if !needed.Contains(int(u)) {
						needed.Set(int(u))
						changed = true
					}
				}
			}
		}
	}
	for _, b := range f.Blocks {
		out := b.Instrs[:0]
		for _, in := range b.Instrs {
			d := in.Def()
			if !in.HasSideEffects() && in.Op != Jmp && in.Op != Br && in.Op != Ret &&
				(d == NoReg || !needed.Contains(int(d))) && in.Op != Nop {
				continue
			}
			if in.Op == Nop {
				continue
			}
			out = append(out, in)
		}
		b.Instrs = out
	}
}
