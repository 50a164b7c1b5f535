package funcmodel

import (
	"fmt"
	"math"

	"xmtgo/internal/isa"
)

// The functional semantics are split into the pieces the cycle-accurate
// model needs individually: pure compute (ExecCompute), branch evaluation
// (EvalBranch), effective-address computation (EffAddr) and the
// memory-side operations (LoadValue / StoreValue / Psm, performed at the
// owning cache module in cycle-accurate mode), plus the sys traps.

func f32(v int32) float32   { return math.Float32frombits(uint32(v)) }
func fbits(f float32) int32 { return int32(math.Float32bits(f)) }

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// These functions take decoded operand fields rather than an isa.Instr so
// that every executor calls the same kernel with what it already holds:
// the interpreter passes the fields of Prog.Text[pc], the cycle-accurate
// model the slots of its lowered issue record (funcvm.IssueRec). Neither
// copies a 48-byte instruction to do so.

// ExecCompute executes a register-only instruction (ALU, shift, MDU, FPU),
// writing the destination register. imm is the instruction's raw immediate:
// masking (andi/ori/xori), pre-shifting (lui) and shift-amount clamping
// happen here and nowhere else. It must not be called for memory, branch,
// or control instructions.
func (m *Machine) ExecCompute(ctx *Context, op isa.Op, rd, rsReg, rtReg isa.Reg, imm int32) error {
	rs, rt := ctx.Reg[rsReg&31], ctx.Reg[rtReg&31]
	var v int32
	switch op {
	case isa.OpNop:
		return nil
	case isa.OpAdd, isa.OpAddu:
		v = rs + rt
	case isa.OpSub, isa.OpSubu:
		v = rs - rt
	case isa.OpAnd:
		v = rs & rt
	case isa.OpOr:
		v = rs | rt
	case isa.OpXor:
		v = rs ^ rt
	case isa.OpNor:
		v = ^(rs | rt)
	case isa.OpSlt:
		v = b2i(rs < rt)
	case isa.OpSltu:
		v = b2i(uint32(rs) < uint32(rt))
	case isa.OpAddi, isa.OpAddiu:
		v = rs + imm
	case isa.OpAndi:
		v = rs & (imm & 0xffff)
	case isa.OpOri:
		v = rs | (imm & 0xffff)
	case isa.OpXori:
		v = rs ^ (imm & 0xffff)
	case isa.OpSlti:
		v = b2i(rs < imm)
	case isa.OpSltiu:
		v = b2i(uint32(rs) < uint32(imm))
	case isa.OpLui:
		v = imm << 16
	case isa.OpSll:
		v = rs << uint(imm&31)
	case isa.OpSrl:
		v = int32(uint32(rs) >> uint(imm&31))
	case isa.OpSra:
		v = rs >> uint(imm&31)
	case isa.OpSllv:
		v = rs << uint(rt&31)
	case isa.OpSrlv:
		v = int32(uint32(rs) >> uint(rt&31))
	case isa.OpSrav:
		v = rs >> uint(rt&31)
	case isa.OpMul:
		v = rs * rt
	case isa.OpMulu:
		v = int32(uint32(rs) * uint32(rt))
	case isa.OpDiv:
		if rt == 0 {
			return fmt.Errorf("integer division by zero")
		}
		v = rs / rt
	case isa.OpDivu:
		if rt == 0 {
			return fmt.Errorf("integer division by zero")
		}
		v = int32(uint32(rs) / uint32(rt))
	case isa.OpRem:
		if rt == 0 {
			return fmt.Errorf("integer division by zero")
		}
		v = rs % rt
	case isa.OpRemu:
		if rt == 0 {
			return fmt.Errorf("integer division by zero")
		}
		v = int32(uint32(rs) % uint32(rt))
	case isa.OpAddS:
		v = fbits(f32(rs) + f32(rt))
	case isa.OpSubS:
		v = fbits(f32(rs) - f32(rt))
	case isa.OpMulS:
		v = fbits(f32(rs) * f32(rt))
	case isa.OpDivS:
		v = fbits(f32(rs) / f32(rt))
	case isa.OpAbsS:
		v = fbits(float32(math.Abs(float64(f32(rs)))))
	case isa.OpNegS:
		v = fbits(-f32(rs))
	case isa.OpSqrtS:
		v = fbits(float32(math.Sqrt(float64(f32(rs)))))
	case isa.OpCvtSW:
		v = fbits(float32(rs))
	case isa.OpCvtWS:
		v = int32(f32(rs))
	case isa.OpCeqS:
		v = b2i(f32(rs) == f32(rt))
	case isa.OpCltS:
		v = b2i(f32(rs) < f32(rt))
	case isa.OpCleS:
		v = b2i(f32(rs) <= f32(rt))
	default:
		return fmt.Errorf("ExecCompute: %s is not a compute instruction", op)
	}
	ctx.SetReg(rd, v)
	return nil
}

// EvalBranch evaluates a branch/jump at ctx (whose PC is already advanced
// past the instruction) and returns whether it is taken and the target
// instruction index. Link registers are written here.
func (m *Machine) EvalBranch(ctx *Context, op isa.Op, rsReg, rtReg isa.Reg, static int) (taken bool, target int, err error) {
	rs, rt := ctx.Reg[rsReg&31], ctx.Reg[rtReg&31]
	switch op {
	case isa.OpBeq:
		return rs == rt, static, nil
	case isa.OpBne:
		return rs != rt, static, nil
	case isa.OpBlez:
		return rs <= 0, static, nil
	case isa.OpBgtz:
		return rs > 0, static, nil
	case isa.OpBltz:
		return rs < 0, static, nil
	case isa.OpBgez:
		return rs >= 0, static, nil
	case isa.OpJ:
		return true, static, nil
	case isa.OpJal:
		ctx.SetReg(isa.RegRA, int32(ctx.PC))
		return true, static, nil
	case isa.OpJr:
		return true, int(rs), nil
	case isa.OpJalr:
		t := int(rs)
		ctx.SetReg(isa.RegRA, int32(ctx.PC))
		return true, t, nil
	}
	return false, 0, fmt.Errorf("EvalBranch: %s is not a branch", op)
}

// EffAddr computes the effective byte address of a memory instruction.
func (m *Machine) EffAddr(ctx *Context, base isa.Reg, off int32) uint32 {
	return uint32(ctx.Reg[base&31] + off)
}

// LoadValue performs the memory-side read of a load instruction and
// returns the register value to commit.
func (m *Machine) LoadValue(op isa.Op, addr uint32) (int32, error) {
	switch op {
	case isa.OpLw, isa.OpLwRO, isa.OpPref:
		return m.ReadWord(addr)
	case isa.OpLb:
		b, err := m.LoadByte(addr)
		return int32(int8(b)), err
	case isa.OpLbu:
		b, err := m.LoadByte(addr)
		return int32(b), err
	}
	return 0, fmt.Errorf("LoadValue: %s is not a load", op)
}

// StoreValue performs the memory-side write of a store instruction; data
// is the value of the instruction's data register captured at issue.
func (m *Machine) StoreValue(op isa.Op, addr uint32, data int32) error {
	switch op {
	case isa.OpSw, isa.OpSwNB:
		return m.WriteWord(addr, data)
	case isa.OpSb:
		return m.StoreByte(addr, byte(data))
	}
	return fmt.Errorf("StoreValue: %s is not a store", op)
}

// DoSys executes the sys trap with the given code for ctx. It returns
// whether the machine halted.
func (m *Machine) DoSys(ctx *Context, code int32) (halt bool, err error) {
	switch code {
	case isa.SysHalt:
		m.Halted = true
		return true, nil
	case isa.SysPrintInt:
		fmt.Fprintf(m.Out, "%d", ctx.Reg[isa.RegV0])
	case isa.SysPrintChar:
		fmt.Fprintf(m.Out, "%c", rune(ctx.Reg[isa.RegV0]))
	case isa.SysPrintStr:
		s, err := m.StringAt(uint32(ctx.Reg[isa.RegV0]))
		if err != nil {
			return false, err
		}
		fmt.Fprint(m.Out, s)
	case isa.SysCycle:
		ctx.SetReg(isa.RegV0, int32(m.CycleFn()))
	case isa.SysCheckpoint:
		m.CheckpointRequested = true
	case isa.SysPrintFloat:
		fmt.Fprintf(m.Out, "%g", f32(ctx.Reg[isa.RegV0]))
	default:
		return false, fmt.Errorf("unknown sys code %d", code)
	}
	return false, nil
}
