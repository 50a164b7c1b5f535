package funcmodel

import (
	"fmt"

	"xmtgo/internal/isa"
)

// This file implements the fast functional simulation mode (paper §III-A):
// the cycle-accurate model is replaced by a simplified mechanism that
// serializes the parallel sections of code. A single virtual TCU runs the
// spawn region; its ps/chkid grab-loop naturally pulls every virtual thread
// id in order, so all virtual threads execute back to back. The mode is
// orders of magnitude faster than cycle-accurate simulation and is used as
// a debugging tool — but, exactly as the paper warns, it cannot reveal
// concurrency bugs, because memory operations never reorder.

// Current returns the context the functional mode executes next.
func (m *Machine) Current() *Context {
	if m.inParallel {
		return &m.parallel
	}
	return &m.Master
}

// Step executes one instruction in functional mode. It returns false when
// the machine has halted.
func (m *Machine) Step() (bool, error) {
	if m.Halted {
		return false, nil
	}
	ctx := m.Current()
	if ctx.PC < 0 || ctx.PC >= len(m.Prog.Text) {
		return false, fmt.Errorf("funcmodel: PC %d outside program (context %d)", ctx.PC, ctx.ID)
	}
	in := &m.Prog.Text[ctx.PC]
	pc := ctx.PC
	ctx.PC++
	m.InstrCount++
	if m.Trace != nil {
		m.Trace(ctx, *in)
	}

	wrap := func(err error) error {
		if err == nil {
			return nil
		}
		return &RuntimeError{PC: pc, Line: in.Line, In: *in, Err: err}
	}

	meta := in.Op.Meta()
	switch {
	case in.Op == isa.OpSys:
		halt, err := m.DoSys(ctx, in.Imm)
		if err != nil {
			return false, wrap(err)
		}
		return !halt, nil
	case in.Op == isa.OpSpawn:
		return true, wrap(m.startSpawn(ctx, in, pc))
	case in.Op == isa.OpJoin:
		// Falling into join ends the current virtual thread's work; with
		// the single serialized TCU that means the spawn is complete.
		if m.inParallel {
			m.endSpawn()
			return true, nil
		}
		return false, wrap(fmt.Errorf("join executed in serial mode"))
	case in.Op == isa.OpChkid:
		id := ctx.Reg[in.Rd]
		if !m.inParallel {
			return false, wrap(fmt.Errorf("chkid executed in serial mode"))
		}
		if id > m.spawnHigh {
			// All virtual threads done (single serialized TCU): join.
			m.endSpawn()
		}
		return true, nil
	case in.Op == isa.OpPs:
		old, err := m.Ps(in.G, ctx.Reg[in.Rd])
		if err != nil {
			return false, wrap(err)
		}
		ctx.SetReg(in.Rd, old)
		return true, nil
	case in.Op == isa.OpGrr:
		ctx.SetReg(in.Rd, m.G[in.G])
		return true, nil
	case in.Op == isa.OpGrw:
		m.G[in.G] = ctx.Reg[in.Rd]
		return true, nil
	case in.Op == isa.OpBcast:
		if m.inParallel {
			return false, wrap(fmt.Errorf("bcast in parallel code"))
		}
		m.pendingBcastMask |= 1 << uint(in.Rd)
		m.pendingBcast[in.Rd] = ctx.Reg[in.Rd]
		return true, nil
	case in.Op == isa.OpFence:
		return true, nil // functional mode has no pending memory operations
	case in.Op == isa.OpPsm:
		addr := m.EffAddr(ctx, in.Rs, in.Imm)
		old, err := m.Psm(addr, ctx.Reg[in.Rd])
		if err != nil {
			return false, wrap(err)
		}
		ctx.SetReg(in.Rd, old)
		return true, nil
	case in.Op == isa.OpPref:
		// Prefetch is a hint; functional mode validates the address only.
		_, err := m.ReadWord(m.EffAddr(ctx, in.Rs, in.Imm) &^ 3)
		return true, wrap(err)
	case meta.Load:
		v, err := m.LoadValue(in.Op, m.EffAddr(ctx, in.Rs, in.Imm))
		if err != nil {
			return false, wrap(err)
		}
		ctx.SetReg(in.Rd, v)
		return true, nil
	case meta.Store:
		return true, wrap(m.StoreValue(in.Op, m.EffAddr(ctx, in.Rs, in.Imm), ctx.Reg[in.Rd]))
	case meta.Branch:
		taken, target, err := m.EvalBranch(ctx, in.Op, in.Rs, in.Rt, in.Target)
		if err != nil {
			return false, wrap(err)
		}
		if taken {
			if target < 0 || target >= len(m.Prog.Text) {
				return false, wrap(fmt.Errorf("branch target %d outside program", target))
			}
			ctx.PC = target
		}
		return true, nil
	default:
		return true, wrap(m.ExecCompute(ctx, in.Op, in.Rd, in.Rs, in.Rt, in.Imm))
	}
}

func (m *Machine) startSpawn(ctx *Context, in *isa.Instr, pc int) error {
	if m.inParallel {
		return fmt.Errorf("nested spawn")
	}
	region := m.Prog.RegionOf(pc + 1)
	if region == nil || region.Spawn != pc {
		return fmt.Errorf("spawn at %d has no linked region", pc)
	}
	low, high := ctx.Reg[in.Rs], ctx.Reg[in.Rt]
	m.spawnLow, m.spawnHigh = low, high
	m.joinIdx = region.Join
	m.savedPC = region.Join + 1
	m.G[isa.GRegSpawn] = low
	if low > high {
		// Empty spawn: no virtual threads; resume after join immediately.
		m.Master.PC = m.savedPC
		m.pendingBcastMask = 0
		return nil
	}
	m.inParallel = true
	m.parallel = Context{ID: 0}
	for r := 0; r < isa.NumRegs; r++ {
		if m.pendingBcastMask&(1<<uint(r)) != 0 {
			m.parallel.Reg[r] = m.pendingBcast[r]
		}
	}
	m.pendingBcastMask = 0
	m.parallel.PC = pc + 1
	return nil
}

func (m *Machine) endSpawn() {
	m.inParallel = false
	m.Master.PC = m.savedPC
}

// RunTo executes until at least target instructions have run and the
// machine is Quiescent, or until it halts or errors. It mirrors the funcvm
// backend's RunTo so either backend can stop at a backend-agnostic
// checkpoint boundary (docs/SIMULATOR.md §Functional backends).
func (m *Machine) RunTo(target uint64) error {
	for !m.Halted {
		if m.InstrCount >= target && m.Quiescent() {
			return nil
		}
		ok, err := m.Step()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
	return nil
}

// Run executes until halt or an error, with an instruction budget guarding
// against runaway programs (budget <= 0 means no limit).
func (m *Machine) Run(budget uint64) error {
	for {
		ok, err := m.Step()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if budget > 0 && m.InstrCount >= budget {
			return fmt.Errorf("funcmodel: instruction budget %d exhausted (runaway program?)", budget)
		}
	}
}
