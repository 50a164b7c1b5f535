package funcvm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unsafe"

	"xmtgo/internal/isa"

	"xmtgo/internal/sim/funcmodel"
)

// This file is intentionally a long list of tiny functions: one handler per
// lowered opcode shape. Each handler reads pre-resolved slots from its word,
// mutates the VM state, and returns the next word to execute (nil to stop
// dispatch). Error messages and ordering replicate the funcmodel
// interpreter exactly — the three-way conformance matrix and the backend
// differential fuzzer depend on bit-for-bit architectural agreement.

var (
	errNestedSpawn   = errors.New("nested spawn")
	errJoinSerial    = errors.New("join executed in serial mode")
	errChkidSerial   = errors.New("chkid executed in serial mode")
	errBcastParallel = errors.New("bcast in parallel code")
	errDivZero       = errors.New("integer division by zero")
)

func f32(v int32) float32   { return math.Float32frombits(uint32(v)) }
func fbits(f float32) int32 { return int32(math.Float32bits(f)) }

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

func hNop(v *VM, w *word) *word { return w.nextw }

// --- Integer ALU ---

func hAdd(v *VM, w *word) *word {
	v.regs[w.d] = v.regs[w.s] + v.regs[w.t]
	return w.nextw
}

func hSub(v *VM, w *word) *word {
	v.regs[w.d] = v.regs[w.s] - v.regs[w.t]
	return w.nextw
}

func hAnd(v *VM, w *word) *word {
	v.regs[w.d] = v.regs[w.s] & v.regs[w.t]
	return w.nextw
}

func hOr(v *VM, w *word) *word {
	v.regs[w.d] = v.regs[w.s] | v.regs[w.t]
	return w.nextw
}

func hXor(v *VM, w *word) *word {
	v.regs[w.d] = v.regs[w.s] ^ v.regs[w.t]
	return w.nextw
}

func hNor(v *VM, w *word) *word {
	v.regs[w.d] = ^(v.regs[w.s] | v.regs[w.t])
	return w.nextw
}

func hSlt(v *VM, w *word) *word {
	v.regs[w.d] = b2i(v.regs[w.s] < v.regs[w.t])
	return w.nextw
}

func hSltu(v *VM, w *word) *word {
	v.regs[w.d] = b2i(uint32(v.regs[w.s]) < uint32(v.regs[w.t]))
	return w.nextw
}

func hAddi(v *VM, w *word) *word {
	v.regs[w.d] = v.regs[w.s] + w.imm
	return w.nextw
}

func hAndi(v *VM, w *word) *word {
	v.regs[w.d] = v.regs[w.s] & w.imm
	return w.nextw
}

func hOri(v *VM, w *word) *word {
	v.regs[w.d] = v.regs[w.s] | w.imm
	return w.nextw
}

func hXori(v *VM, w *word) *word {
	v.regs[w.d] = v.regs[w.s] ^ w.imm
	return w.nextw
}

func hSlti(v *VM, w *word) *word {
	v.regs[w.d] = b2i(v.regs[w.s] < w.imm)
	return w.nextw
}

func hSltiu(v *VM, w *word) *word {
	v.regs[w.d] = b2i(uint32(v.regs[w.s]) < uint32(w.imm))
	return w.nextw
}

func hLui(v *VM, w *word) *word {
	v.regs[w.d] = w.imm // pre-shifted at lowering
	return w.nextw
}

// --- Shifts ---
//
// Shift amounts are masked at lowering; masking again costs nothing and
// lets the compiler drop its check for amounts of 32 and more.

func hSll(v *VM, w *word) *word {
	v.regs[w.d] = v.regs[w.s] << uint(w.imm&31)
	return w.nextw
}

func hSrl(v *VM, w *word) *word {
	v.regs[w.d] = int32(uint32(v.regs[w.s]) >> uint(w.imm&31))
	return w.nextw
}

func hSra(v *VM, w *word) *word {
	v.regs[w.d] = v.regs[w.s] >> uint(w.imm&31)
	return w.nextw
}

func hSllv(v *VM, w *word) *word {
	v.regs[w.d] = v.regs[w.s] << uint(v.regs[w.t]&31)
	return w.nextw
}

func hSrlv(v *VM, w *word) *word {
	v.regs[w.d] = int32(uint32(v.regs[w.s]) >> uint(v.regs[w.t]&31))
	return w.nextw
}

func hSrav(v *VM, w *word) *word {
	v.regs[w.d] = v.regs[w.s] >> uint(v.regs[w.t]&31)
	return w.nextw
}

// --- Multiply/divide ---

func hMul(v *VM, w *word) *word {
	v.regs[w.d] = v.regs[w.s] * v.regs[w.t]
	return w.nextw
}

func hMulu(v *VM, w *word) *word {
	v.regs[w.d] = int32(uint32(v.regs[w.s]) * uint32(v.regs[w.t]))
	return w.nextw
}

func hDiv(v *VM, w *word) *word {
	rt := v.regs[w.t]
	if rt == 0 {
		return v.fail(w, errDivZero)
	}
	v.regs[w.d] = v.regs[w.s] / rt
	return w.nextw
}

func hDivu(v *VM, w *word) *word {
	rt := v.regs[w.t]
	if rt == 0 {
		return v.fail(w, errDivZero)
	}
	v.regs[w.d] = int32(uint32(v.regs[w.s]) / uint32(rt))
	return w.nextw
}

func hRem(v *VM, w *word) *word {
	rt := v.regs[w.t]
	if rt == 0 {
		return v.fail(w, errDivZero)
	}
	v.regs[w.d] = v.regs[w.s] % rt
	return w.nextw
}

func hRemu(v *VM, w *word) *word {
	rt := v.regs[w.t]
	if rt == 0 {
		return v.fail(w, errDivZero)
	}
	v.regs[w.d] = int32(uint32(v.regs[w.s]) % uint32(rt))
	return w.nextw
}

// --- Floating point (IEEE-754 bit patterns in the unified file) ---

func hAddS(v *VM, w *word) *word {
	v.regs[w.d] = fbits(f32(v.regs[w.s]) + f32(v.regs[w.t]))
	return w.nextw
}

func hSubS(v *VM, w *word) *word {
	v.regs[w.d] = fbits(f32(v.regs[w.s]) - f32(v.regs[w.t]))
	return w.nextw
}

func hMulS(v *VM, w *word) *word {
	v.regs[w.d] = fbits(f32(v.regs[w.s]) * f32(v.regs[w.t]))
	return w.nextw
}

func hDivS(v *VM, w *word) *word {
	v.regs[w.d] = fbits(f32(v.regs[w.s]) / f32(v.regs[w.t]))
	return w.nextw
}

func hAbsS(v *VM, w *word) *word {
	v.regs[w.d] = fbits(float32(math.Abs(float64(f32(v.regs[w.s])))))
	return w.nextw
}

func hNegS(v *VM, w *word) *word {
	v.regs[w.d] = fbits(-f32(v.regs[w.s]))
	return w.nextw
}

func hSqrtS(v *VM, w *word) *word {
	v.regs[w.d] = fbits(float32(math.Sqrt(float64(f32(v.regs[w.s])))))
	return w.nextw
}

func hCvtSW(v *VM, w *word) *word {
	v.regs[w.d] = fbits(float32(v.regs[w.s]))
	return w.nextw
}

func hCvtWS(v *VM, w *word) *word {
	v.regs[w.d] = int32(f32(v.regs[w.s]))
	return w.nextw
}

func hCeqS(v *VM, w *word) *word {
	v.regs[w.d] = b2i(f32(v.regs[w.s]) == f32(v.regs[w.t]))
	return w.nextw
}

func hCltS(v *VM, w *word) *word {
	v.regs[w.d] = b2i(f32(v.regs[w.s]) < f32(v.regs[w.t]))
	return w.nextw
}

func hCleS(v *VM, w *word) *word {
	v.regs[w.d] = b2i(f32(v.regs[w.s]) <= f32(v.regs[w.t]))
	return w.nextw
}

// --- Branches and jumps ---

func hBeq(v *VM, w *word) *word {
	if v.regs[w.s] == v.regs[w.t] {
		return w.tgtw
	}
	return w.nextw
}

func hBne(v *VM, w *word) *word {
	if v.regs[w.s] != v.regs[w.t] {
		return w.tgtw
	}
	return w.nextw
}

func hBlez(v *VM, w *word) *word {
	if v.regs[w.s] <= 0 {
		return w.tgtw
	}
	return w.nextw
}

func hBgtz(v *VM, w *word) *word {
	if v.regs[w.s] > 0 {
		return w.tgtw
	}
	return w.nextw
}

func hBltz(v *VM, w *word) *word {
	if v.regs[w.s] < 0 {
		return w.tgtw
	}
	return w.nextw
}

func hBgez(v *VM, w *word) *word {
	if v.regs[w.s] >= 0 {
		return w.tgtw
	}
	return w.nextw
}

func hJ(v *VM, w *word) *word { return w.tgtw }

func hJal(v *VM, w *word) *word {
	v.regs[w.d] = w.next // link = pc+1 (instruction index)
	return w.tgtw
}

func hJr(v *VM, w *word) *word {
	t := v.regs[w.s]
	if t < 0 || t >= v.textLen {
		return v.fail(w, fmt.Errorf("branch target %d outside program", t))
	}
	return &v.code[t]
}

func hJalr(v *VM, w *word) *word {
	// The link register is written even when the target is invalid,
	// matching EvalBranch (target captured before the RA write) followed
	// by the interpreter's taken-target bounds check.
	t := v.regs[w.s]
	v.regs[w.d] = w.next
	if t < 0 || t >= v.textLen {
		return v.fail(w, fmt.Errorf("branch target %d outside program", t))
	}
	return &v.code[t]
}

// hBranchBad covers any statically-linked branch whose target lies outside
// the program: like the interpreter it only fails when the branch is
// actually taken. w.imm carries the original target.
func hBranchBad(v *VM, w *word) *word {
	in := v.text[int(w.next)-1]
	rs, rt := v.regs[w.s], v.regs[w.t]
	taken := true
	switch in.Op {
	case isa.OpBeq:
		taken = rs == rt
	case isa.OpBne:
		taken = rs != rt
	case isa.OpBlez:
		taken = rs <= 0
	case isa.OpBgtz:
		taken = rs > 0
	case isa.OpBltz:
		taken = rs < 0
	case isa.OpBgez:
		taken = rs >= 0
	case isa.OpJal:
		v.regs[w.d] = w.next
	}
	if !taken {
		return w.nextw
	}
	return v.fail(w, fmt.Errorf("branch target %d outside program", w.imm))
}

// --- Memory ---

func hLw(v *VM, w *word) *word {
	addr := uint32(v.regs[w.s] + w.imm)
	if addr%4 != 0 || uint64(addr)+4 > uint64(len(v.mem)) {
		return v.memFault(w, addr, "load")
	}
	v.regs[w.d] = int32(binary.LittleEndian.Uint32(v.mem[addr:]))
	return w.nextw
}

// memFault fails the word-sized access op ("load" or "store") of w at
// addr, naming misalignment first like the interpreter. The plain and
// fused load and store handlers all fail through it, and it stays out of
// line so their hot path stays short.
//
//go:noinline
func (v *VM) memFault(w *word, addr uint32, op string) *word {
	if addr%4 != 0 {
		op = "unaligned " + op
	}
	return v.fail(w, &funcmodel.MemFault{Addr: addr, Op: op})
}

func hLb(v *VM, w *word) *word {
	addr := uint32(v.regs[w.s] + w.imm)
	if uint64(addr) >= uint64(len(v.mem)) {
		return v.fail(w, &funcmodel.MemFault{Addr: addr, Op: "load byte"})
	}
	v.regs[w.d] = int32(int8(v.mem[addr]))
	return w.nextw
}

func hLbu(v *VM, w *word) *word {
	addr := uint32(v.regs[w.s] + w.imm)
	if uint64(addr) >= uint64(len(v.mem)) {
		return v.fail(w, &funcmodel.MemFault{Addr: addr, Op: "load byte"})
	}
	v.regs[w.d] = int32(v.mem[addr])
	return w.nextw
}

func hSw(v *VM, w *word) *word {
	addr := uint32(v.regs[w.s] + w.imm)
	if addr%4 != 0 || uint64(addr)+4 > uint64(len(v.mem)) {
		return v.memFault(w, addr, "store")
	}
	binary.LittleEndian.PutUint32(v.mem[addr:], uint32(v.regs[w.t]))
	v.dirty(addr, 4)
	return w.nextw
}

func hSb(v *VM, w *word) *word {
	addr := uint32(v.regs[w.s] + w.imm)
	if uint64(addr) >= uint64(len(v.mem)) {
		return v.fail(w, &funcmodel.MemFault{Addr: addr, Op: "store byte"})
	}
	v.mem[addr] = byte(v.regs[w.t])
	v.dirty(addr, 1)
	return w.nextw
}

func hPref(v *VM, w *word) *word {
	// A prefetch is a hint; only the (word-aligned) address is validated.
	addr := uint32(v.regs[w.s]+w.imm) &^ 3
	if uint64(addr)+4 > uint64(len(v.mem)) {
		return v.fail(w, &funcmodel.MemFault{Addr: addr, Op: "load"})
	}
	return w.nextw
}

func hPsm(v *VM, w *word) *word {
	addr := uint32(v.regs[w.s] + w.imm)
	if addr%4 != 0 {
		return v.fail(w, &funcmodel.MemFault{Addr: addr, Op: "unaligned load"})
	}
	if uint64(addr)+4 > uint64(len(v.mem)) {
		return v.fail(w, &funcmodel.MemFault{Addr: addr, Op: "load"})
	}
	old := int32(binary.LittleEndian.Uint32(v.mem[addr:]))
	binary.LittleEndian.PutUint32(v.mem[addr:], uint32(old+v.regs[w.t]))
	v.dirty(addr, 4)
	v.regs[w.d] = old
	return w.nextw
}

// --- XMT extensions ---

func hPs(v *VM, w *word) *word {
	inc := v.regs[w.t]
	if inc != 0 && inc != 1 {
		return v.fail(w, fmt.Errorf("ps increment must be 0 or 1, got %d", inc))
	}
	old := v.gregs[w.g]
	v.gregs[w.g] = old + inc
	v.regs[w.d] = old
	return w.nextw
}

func hGrr(v *VM, w *word) *word {
	v.regs[w.d] = v.gregs[w.g]
	return w.nextw
}

func hGrw(v *VM, w *word) *word {
	v.gregs[w.g] = v.regs[w.t]
	return w.nextw
}

func hBcast(v *VM, w *word) *word {
	if v.inParallel {
		return v.fail(w, errBcastParallel)
	}
	v.pendingBcastMask |= 1 << uint(w.t)
	v.pendingBcast[w.t] = v.regs[w.t]
	return w.nextw
}

func hSpawn(v *VM, w *word) *word {
	if v.inParallel {
		return v.fail(w, errNestedSpawn)
	}
	low, high := v.regs[w.s], v.regs[w.t]
	v.spawnLow, v.spawnHigh = low, high
	v.savedW = w.tgtw
	v.gregs[63] = low
	if low > high {
		// Empty spawn: no virtual threads; resume after the join.
		v.pendingBcastMask = 0
		return w.tgtw
	}
	copy(v.masterRegs[:], v.regs[:32])
	v.masterPC = w.next
	for i := range v.regs[:32] {
		v.regs[i] = 0
	}
	if v.pendingBcastMask != 0 {
		for r := 0; r < 32; r++ {
			if v.pendingBcastMask&(1<<uint(r)) != 0 {
				v.regs[r] = v.pendingBcast[r]
			}
		}
	}
	v.pendingBcastMask = 0
	v.inParallel = true
	return w.nextw
}

func hSpawnBad(v *VM, w *word) *word {
	if v.inParallel {
		return v.fail(w, errNestedSpawn)
	}
	return v.fail(w, fmt.Errorf("spawn at %d has no linked region", w.imm))
}

func hJoin(v *VM, w *word) *word {
	if v.inParallel {
		return v.endSpawn()
	}
	return v.fail(w, errJoinSerial)
}

func hChkid(v *VM, w *word) *word {
	id := v.regs[w.t]
	if !v.inParallel {
		return v.fail(w, errChkidSerial)
	}
	if id > v.spawnHigh {
		// All virtual threads done (single serialized TCU): join.
		return v.endSpawn()
	}
	return w.nextw
}

// --- Sys traps (one handler per trap code) ---

func hSysHalt(v *VM, w *word) *word {
	v.m.Halted = true
	v.pc = w.next
	v.reason = rHalt
	return nil
}

func hSysPrintInt(v *VM, w *word) *word {
	fmt.Fprintf(v.m.Out, "%d", v.regs[2])
	return w.nextw
}

func hSysPrintChar(v *VM, w *word) *word {
	fmt.Fprintf(v.m.Out, "%c", rune(v.regs[2]))
	return w.nextw
}

func hSysPrintStr(v *VM, w *word) *word {
	s, err := v.m.StringAt(uint32(v.regs[2]))
	if err != nil {
		return v.fail(w, err)
	}
	fmt.Fprint(v.m.Out, s)
	return w.nextw
}

func hSysCycle(v *VM, w *word) *word {
	// The default CycleFn reads Machine.InstrCount, and the dispatch loop
	// keeps the live count in a register: stop the burst so the loop's
	// stop-path accounting settles v.icount (including this instruction)
	// before Run/RunTo service the read and resume.
	v.pc = w.next
	v.reason = rCycle
	return nil
}

func hSysCheckpoint(v *VM, w *word) *word {
	v.m.CheckpointRequested = true
	v.pc = w.next
	v.reason = rCheckpoint
	return nil
}

func hSysPrintFloat(v *VM, w *word) *word {
	fmt.Fprintf(v.m.Out, "%g", f32(v.regs[2]))
	return w.nextw
}

func hSysBad(v *VM, w *word) *word {
	return v.fail(w, fmt.Errorf("unknown sys code %d", w.imm))
}

// hBadOp matches the interpreter's default path, where a non-executable
// opcode falls through to ExecCompute and is rejected there.
func hBadOp(v *VM, w *word) *word {
	in := v.text[int(w.next)-1]
	return v.fail(w, fmt.Errorf("ExecCompute: %s is not a compute instruction", in.Op))
}

// hOutside is the fall-off sentinel at code[len(text)]: sequential flow
// past the last instruction is a fetch error, not an executed instruction
// (the rOutside reason makes the dispatch loop's stop-path accounting
// subtract it from the count).
func hOutside(v *VM, w *word) *word {
	id := -1
	if v.inParallel {
		id = 0
	}
	v.pc = v.textLen
	v.err = fmt.Errorf("funcvm: PC %d outside program (context %d)", v.textLen, id)
	v.reason = rOutside
	return nil
}

// --- Superinstructions (fuse in lower.go) ---
//
// Each runs the members of one idiom, starting with its own word w, and
// reads every member's operands from the member's own word. The value a
// member passes to the next stays in a local; every member's register write
// still happens, in program order, and only the last member branches or
// faults.

// at returns the word k places after w. A superinstruction's members and
// the word after them (the sentinel at worst) lie in the same word slice,
// so at reaches them by offset instead of following nextw: a chain of
// dependent loads through nextw was what a burst of dispatches waited on.
func at(w *word, k uintptr) *word {
	return (*word)(unsafe.Add(unsafe.Pointer(w), k*unsafe.Sizeof(word{})))
}

func hLuiOri(v *VM, w *word) *word {
	v.regs[w.d] = w.imm
	v.regs[at(w, 1).d] = w.k
	return at(w, 2)
}

func hSllAddu(v *VM, w *word) *word {
	x := v.regs[w.s] << uint(w.imm&31)
	v.regs[w.d] = x
	v.regs[at(w, 1).d] = x + v.regs[w.x]
	return at(w, 2)
}

func hSllAdduLw(v *VM, w *word) *word {
	x := v.regs[w.s] << uint(w.imm&31)
	v.regs[w.d] = x
	x += v.regs[w.x]
	v.regs[at(w, 1).d] = x
	l := at(w, 2)
	addr := uint32(x + l.imm)
	if addr%4 != 0 || uint64(addr)+4 > uint64(len(v.mem)) {
		return v.memFault(l, addr, "load")
	}
	v.regs[l.d] = int32(binary.LittleEndian.Uint32(v.mem[addr:]))
	return at(w, 3)
}

// address runs the lui, ori, sll and addu of a global-array access and
// returns the address.
func (v *VM) address(w *word) int32 {
	s := at(w, 2)
	v.regs[w.d] = w.imm
	v.regs[at(w, 1).d] = w.k
	x := v.regs[s.s] << uint(s.imm&31)
	v.regs[s.d] = x
	x += v.regs[w.x]
	v.regs[at(w, 3).d] = x
	return x
}

func hAddrLw(v *VM, w *word) *word {
	x := v.address(w)
	m := at(w, 4)
	addr := uint32(x + m.imm)
	if addr%4 != 0 || uint64(addr)+4 > uint64(len(v.mem)) {
		return v.memFault(m, addr, "load")
	}
	v.regs[m.d] = int32(binary.LittleEndian.Uint32(v.mem[addr:]))
	return at(w, 5)
}

func hAddrSw(v *VM, w *word) *word {
	x := v.address(w)
	m := at(w, 4)
	addr := uint32(x + m.imm)
	if addr%4 != 0 || uint64(addr)+4 > uint64(len(v.mem)) {
		return v.memFault(m, addr, "store")
	}
	binary.LittleEndian.PutUint32(v.mem[addr:], uint32(v.regs[m.t]))
	v.dirty(addr, 4)
	return at(w, 5)
}

func hAddrPref(v *VM, w *word) *word {
	x := v.address(w)
	m := at(w, 4)
	if addr := uint32(x+m.imm) &^ 3; uint64(addr)+4 > uint64(len(v.mem)) {
		return v.fail(m, &funcmodel.MemFault{Addr: addr, Op: "load"})
	}
	return at(w, 5)
}

func hAddiuAddu(v *VM, w *word) *word {
	x := v.regs[w.s] + w.imm
	v.regs[w.d] = x
	v.regs[at(w, 1).d] = x + v.regs[w.x]
	return at(w, 2)
}

func hAddiuAdduJ(v *VM, w *word) *word { return hAddiuAddu(v, w).tgtw }

func hSltBgtz(v *VM, w *word) *word {
	if v.regs[w.s] < v.regs[w.t] {
		v.regs[w.d] = 1
		return at(w, 1).tgtw
	}
	v.regs[w.d] = 0
	return at(w, 2)
}

func hSltiBgtz(v *VM, w *word) *word {
	if v.regs[w.s] < w.imm {
		v.regs[w.d] = 1
		return at(w, 1).tgtw
	}
	v.regs[w.d] = 0
	return at(w, 2)
}
