// Package ir is the intermediate representation of the XMTC compiler's
// core pass: three-address code over unlimited virtual registers in basic
// blocks. The IR mirrors the XMT ISA closely (the back end is nearly 1:1)
// and encodes the XMT memory-model constraints structurally: prefix-sum,
// fence, call, sys, spawn and join instructions are memory barriers that
// the optimizer never moves memory operations across (paper §IV-A), and
// blocks belonging to a spawn region are marked so the register allocator
// can enforce the no-stack rule of parallel code (§IV-D).
package ir

import (
	"fmt"

	"xmtgo/internal/bitset"
)

// VReg is a virtual register index (>= 0). NoReg marks unused operands.
type VReg int32

// NoReg is the absent-operand marker.
const NoReg VReg = -1

// Op is an IR operation.
type Op uint8

const (
	Nop Op = iota

	// Values.
	LdImm     // Dst = Imm
	LdSym     // Dst = address of data symbol Sym (or text label index)
	FrameAddr // Dst = $sp + frame slot offset Imm (serial code only)
	Mov       // Dst = A

	// Integer arithmetic (register forms; *Imm use Imm as second operand).
	Add
	AddImm
	Sub
	Mul
	Div
	DivU
	Rem
	RemU
	And
	AndImm
	Or
	OrImm
	Xor
	XorImm
	Nor
	Shl
	ShlImm
	Shr
	ShrImm
	Sar
	SarImm
	SltS
	SltImm
	SltU
	SltUImm

	// Floating point (bits in integer vregs).
	FAdd
	FSub
	FMul
	FDiv
	FNeg
	FAbs
	FSqrt
	CvtIF // int -> float
	CvtFI // float -> int
	FEq
	FLt
	FLe

	// Memory. Size is 1 or 4; Signed applies to 1-byte loads; Volatile
	// loads/stores are never eliminated; NB marks a non-blocking store.
	Load  // Dst = mem[A + Imm]
	Store // mem[A + Imm] = B

	// XMT operations.
	Ps     // Dst = fetch-add(greg G, A); A must be 0/1 at run time
	Psm    // Dst = fetch-add(mem[A + Imm], B)
	Grr    // Dst = greg G
	Grw    // greg G = A
	Fence  // wait for this context's pending memory operations
	Pref   // prefetch line of mem[A + Imm]
	LoadRO // Dst = mem[A + Imm] via the cluster read-only cache

	// Control.
	Spawn // enter parallel mode: A = low, B = high (paired with Join)
	Join  // end of the spawn region
	Chkid // validate virtual-thread id in A; blocks the TCU when out of range
	Sys   // simulator trap Imm; A optional argument, Dst optional result
	Call  // Dst = CallName(CallArgs...)
	Ret   // return A (or nothing when A == NoReg)

	// Terminators.
	Jmp // unconditional to Target
	Br  // conditional: BrKind(A, B) -> Target, else fall through

	numIROps
)

// BrKind is the fused compare-and-branch condition.
type BrKind uint8

const (
	BrEQ  BrKind = iota // A == B
	BrNE                // A != B
	BrLEZ               // A <= 0
	BrGTZ               // A > 0
	BrLTZ               // A < 0
	BrGEZ               // A >= 0
)

// Instr is one IR instruction.
type Instr struct {
	Op   Op
	Dst  VReg
	A, B VReg
	Imm  int32
	Sym  string
	G    uint8 // global register for Ps/Grr/Grw

	Size     uint8 // memory access size (1 or 4)
	Signed   bool  // sign-extend byte loads
	Volatile bool
	NB       bool // non-blocking store

	Cond   BrKind
	Target *Block

	CallName string
	CallArgs []VReg

	Line int // source line for diagnostics and asm mapping
}

// Block is a basic block. Control falls through to the next block in the
// function's Blocks slice unless the last instruction is an unconditional
// transfer.
type Block struct {
	ID     int
	Label  string
	Instrs []Instr

	// SpawnID > 0 marks blocks inside that spawn region.
	SpawnID int

	// liveIn/liveOut are filled by Liveness.
	liveIn, liveOut bitset.Set
}

// Func is an IR function.
type Func struct {
	Name     string
	NumArgs  int
	ArgRegs  []VReg // vregs holding incoming arguments
	RetVoid  bool
	Blocks   []*Block
	NumVRegs int // every vreg of the function is below it (see NewVReg)

	// HasCall is set when the function calls others (so $ra is saved).
	HasCall bool
	// SpawnCount is the number of spawn regions lowered in this function.
	SpawnCount int
	// FrameLocals is the byte size of memory-resident locals (arrays,
	// address-taken or volatile locals); slots are addressed $sp+offset.
	FrameLocals int32
}

// NewVReg allocates a fresh virtual register.
func (f *Func) NewVReg() VReg {
	v := VReg(f.NumVRegs)
	f.NumVRegs++
	return v
}

// NewBlock appends a fresh block.
func (f *Func) NewBlock(label string) *Block {
	b := &Block{ID: len(f.Blocks), Label: label}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Emit appends an instruction to the block.
func (b *Block) Emit(in Instr) { b.Instrs = append(b.Instrs, in) }

// Terminated reports whether the block ends in an unconditional transfer.
func (b *Block) Terminated() bool {
	if len(b.Instrs) == 0 {
		return false
	}
	switch b.Instrs[len(b.Instrs)-1].Op {
	case Jmp, Ret:
		return true
	}
	return false
}

// IsBarrier reports whether the instruction is a memory barrier the
// optimizer must not move or eliminate memory operations across: prefix
// sums, fences, calls, sys traps and spawn/join boundaries (the XMT memory
// model orders memory relative to exactly these).
func (in *Instr) IsBarrier() bool {
	switch in.Op {
	case Ps, Psm, Fence, Call, Sys, Spawn, Join, Chkid, Grw, Grr:
		return true
	}
	return false
}

// HasSideEffects reports whether the instruction must be kept even if its
// result is unused.
func (in *Instr) HasSideEffects() bool {
	switch in.Op {
	case Store, Ps, Psm, Grw, Fence, Pref, Spawn, Join, Chkid, Sys, Call, Ret, Jmp, Br:
		return true
	case Load, LoadRO:
		return in.Volatile
	case Div, Rem: // may trap on zero
		return true
	}
	return false
}

// Uses returns the vregs read by the instruction. The switch is op-aware
// so stale operand fields on single-operand instructions are ignored.
func (in *Instr) Uses(buf []VReg) []VReg {
	buf = buf[:0]
	add := func(v VReg) {
		if v != NoReg {
			buf = append(buf, v)
		}
	}
	switch in.Op {
	case LdImm, LdSym, FrameAddr, Grr, Fence, Join, Jmp, Nop:
	case Call:
		for _, a := range in.CallArgs {
			add(a)
		}
	case Mov, AddImm, AndImm, OrImm, XorImm, ShlImm, ShrImm, SarImm,
		SltImm, SltUImm, FNeg, FAbs, FSqrt, CvtIF, CvtFI,
		Load, LoadRO, Pref, Grw, Chkid, Ret, Sys, Ps:
		add(in.A)
	case Br:
		add(in.A)
		if in.Cond == BrEQ || in.Cond == BrNE {
			add(in.B)
		}
	default:
		add(in.A)
		add(in.B)
	}
	return buf
}

// Def returns the vreg written, or NoReg.
func (in *Instr) Def() VReg {
	switch in.Op {
	case Store, Grw, Fence, Pref, Spawn, Join, Chkid, Ret, Jmp, Br, Nop:
		return NoReg
	case Sys, Call:
		return in.Dst // may be NoReg
	}
	return in.Dst
}

func (in Instr) String() string {
	switch in.Op {
	case LdImm:
		return fmt.Sprintf("v%d = %d", in.Dst, in.Imm)
	case LdSym:
		return fmt.Sprintf("v%d = &%s", in.Dst, in.Sym)
	case Mov:
		return fmt.Sprintf("v%d = v%d", in.Dst, in.A)
	case Load:
		return fmt.Sprintf("v%d = load%d [v%d+%d]", in.Dst, in.Size, in.A, in.Imm)
	case LoadRO:
		return fmt.Sprintf("v%d = loadro [v%d+%d]", in.Dst, in.A, in.Imm)
	case Store:
		nb := ""
		if in.NB {
			nb = ".nb"
		}
		return fmt.Sprintf("store%d%s [v%d+%d] = v%d", in.Size, nb, in.A, in.Imm, in.B)
	case Ps:
		return fmt.Sprintf("v%d = ps(v%d, g%d)", in.Dst, in.A, in.G)
	case Psm:
		return fmt.Sprintf("v%d = psm(v%d, [v%d+%d])", in.Dst, in.B, in.A, in.Imm)
	case Grr:
		return fmt.Sprintf("v%d = g%d", in.Dst, in.G)
	case Grw:
		return fmt.Sprintf("g%d = v%d", in.G, in.A)
	case Spawn:
		return fmt.Sprintf("spawn v%d, v%d", in.A, in.B)
	case Chkid:
		return fmt.Sprintf("chkid v%d", in.A)
	case Call:
		return fmt.Sprintf("v%d = call %s %v", in.Dst, in.CallName, in.CallArgs)
	case Ret:
		if in.A == NoReg {
			return "ret"
		}
		return fmt.Sprintf("ret v%d", in.A)
	case Jmp:
		return fmt.Sprintf("jmp %s", in.Target.Label)
	case Br:
		return fmt.Sprintf("br%d v%d, v%d -> %s", in.Cond, in.A, in.B, in.Target.Label)
	case Sys:
		return fmt.Sprintf("sys %d (v%d -> v%d)", in.Imm, in.A, in.Dst)
	}
	return fmt.Sprintf("op%d v%d, v%d, v%d, imm=%d", in.Op, in.Dst, in.A, in.B, in.Imm)
}

// Dump renders the function for debugging.
func (f *Func) Dump() string {
	s := fmt.Sprintf("func %s (%d args, %d vregs)\n", f.Name, f.NumArgs, f.NumVRegs)
	for _, b := range f.Blocks {
		s += fmt.Sprintf("%s: (spawn %d)\n", b.Label, b.SpawnID)
		for _, in := range b.Instrs {
			s += "\t" + in.String() + "\n"
		}
	}
	return s
}

// Succs returns the block's successors given the layout. Blocks may end
// with several branch instructions (a Br chain followed by a Jmp), and a
// Spawn instruction contributes its paired join block: the master's
// control continues there once all virtual threads complete.
func (f *Func) Succs(i int) []*Block {
	b := f.Blocks[i]
	var out []*Block
	for ii := range b.Instrs {
		switch b.Instrs[ii].Op {
		case Spawn:
			if b.Instrs[ii].Target != nil {
				out = append(out, b.Instrs[ii].Target)
			}
		case Br:
			out = append(out, b.Instrs[ii].Target)
		}
	}
	if len(b.Instrs) > 0 {
		last := b.Instrs[len(b.Instrs)-1]
		switch last.Op {
		case Jmp:
			return append(out, last.Target)
		case Ret:
			return out
		}
	}
	if i+1 < len(f.Blocks) {
		out = append(out, f.Blocks[i+1])
	}
	return out
}
