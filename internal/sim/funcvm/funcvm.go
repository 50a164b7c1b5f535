// Package funcvm is the direct-threaded bytecode backend for the
// functional model. The assembled program is lowered once (lower.go) into
// a flat stream of words whose operands — register file slots, folded
// immediates, absolute branch targets, spawn join points, sys trap codes —
// are fully pre-resolved, and a dispatch loop of func-valued handlers
// executes that stream with no per-step ISA decode. Words that start one of
// the compiler's address or loop idioms also carry a superinstruction that
// runs the whole idiom in one dispatch.
//
// The VM is a drop-in alternative to funcmodel's Step interpreter: it
// attaches to an existing funcmodel.Machine, executes against the
// machine's memory and global registers in place, and synchronizes the
// master context, instruction count and dirty-memory watermarks back on
// every stop, so checkpoints, conformance comparisons and the
// observability surface are backend-agnostic. Architectural results —
// memory, registers, printf output, instruction counts and error
// messages (modulo the funcvm:/funcmodel: prefix on fetch/budget
// errors) — are bit-identical to the interpreter on every program.
package funcvm

import (
	"errors"
	"fmt"
	"math"

	"xmtgo/internal/isa"

	"xmtgo/internal/sim/funcmodel"
)

// Stop reasons of one dispatch burst. rCycle and rOutside exist so the
// dispatch loop can track the instruction count in a register instead of
// a VM field: the only handlers that need an exact live count (the sys
// cycle trap) or a count adjustment (the fall-off sentinel, which is a
// fetch error, not an executed instruction) stop the burst and let the
// loop's stop-path accounting make the count exact first.
const (
	rHalt = iota + 1
	rErr
	rBudget
	rCheckpoint
	rCycle
	rOutside
)

// VM executes a lowered program against a funcmodel.Machine's
// architectural state. Create one with Attach (or AttachCode to share a
// pre-lowered Code across machines).
type VM struct {
	// regs is the flat register file: slots 0..31 are the architectural
	// registers of the executing context, slot zeroSink absorbs writes to
	// $zero. Sized so uint8 slot indexing needs no bounds checks.
	regs [regSlots]int32

	m    *funcmodel.Machine
	code []word
	text []isa.Instr
	mem  []byte
	// gregs aliases the machine's global register file, so grr/grw/ps
	// update the machine directly and no sync step is needed for G.
	gregs *[isa.NumGRegs]int32

	pc      int32
	textLen int32
	icount  uint64

	// Serialized-spawn state, mirroring the interpreter: the parallel
	// section runs on this same register file while the master context is
	// parked in masterRegs/masterPC.
	inParallel       bool
	spawnLow         int32
	spawnHigh        int32
	savedW           *word // post-join word, jumped to by endSpawn
	masterPC         int32
	masterRegs       [isa.NumRegs]int32
	pendingBcastMask uint32
	pendingBcast     [isa.NumRegs]int32

	// Dirty-memory watermarks for the machine's pooled-buffer recycling,
	// maintained locally (stores bypass Machine.WriteWord) and merged via
	// Machine.WidenDirty at every sync-out.
	memHalf uint32
	dirtyLo uint32
	dirtyHi uint32

	err    error
	reason int

	scratch funcmodel.Context // trace-hook context, reused per instruction

	// OnCheckpoint, when set, is invoked at every sys checkpoint trap with
	// the machine fully synchronized; afterwards CheckpointRequested is
	// cleared and execution resumes. When nil the trap only sets
	// Machine.CheckpointRequested, like the interpreter's Run.
	OnCheckpoint func(*funcmodel.Machine) error
}

// Attach lowers the machine's program (reusing any cached lowering) and
// returns a VM positioned at the machine's current state. The machine must
// be quiescent — serial mode with no pending bcast — because that spawn
// bookkeeping is not exchangeable between backends.
func Attach(m *funcmodel.Machine) (*VM, error) {
	return AttachCode(m, NewCode(m.Prog))
}

// AttachCode is Attach with an explicitly shared lowered Code.
func AttachCode(m *funcmodel.Machine, c *Code) (*VM, error) {
	if c == nil || len(c.text) != len(m.Prog.Text) {
		return nil, errors.New("funcvm: lowered code does not match the machine's program")
	}
	if !m.Quiescent() {
		return nil, errors.New("funcvm: machine must be quiescent (serial mode, no pending bcast) to attach")
	}
	v := &VM{
		m:       m,
		code:    c.words,
		text:    c.text,
		textLen: int32(len(c.text)),
		gregs:   &m.G,
	}
	v.syncIn()
	return v, nil
}

// Machine returns the attached machine. Its architectural state is
// up to date whenever the VM is stopped.
func (v *VM) Machine() *funcmodel.Machine { return v.m }

// InstrCount returns the number of instructions executed so far.
func (v *VM) InstrCount() uint64 { return v.icount }

// InParallel reports whether the VM is inside a serialized spawn.
func (v *VM) InParallel() bool { return v.inParallel }

// Quiescent mirrors Machine.Quiescent for the VM's live state.
func (v *VM) Quiescent() bool { return !v.inParallel && v.pendingBcastMask == 0 }

// Current returns a copy of the architecturally-current context, mirroring
// Machine.Current: the master in serial mode, virtual-TCU context 0 inside
// a spawn.
func (v *VM) Current() funcmodel.Context {
	c := funcmodel.Context{ID: -1, IsMaster: true, PC: int(v.pc)}
	if v.inParallel {
		c.ID, c.IsMaster = 0, false
	}
	copy(c.Reg[:], v.regs[:isa.NumRegs])
	return c
}

// syncIn loads the machine's (serial, quiescent) state into the VM. Called
// at attach and after an OnCheckpoint callback, which may have mutated the
// master context or restored memory in place.
func (v *VM) syncIn() {
	v.mem = v.m.Mem
	v.memHalf = uint32(len(v.mem)) / 2
	v.dirtyLo = 0
	v.dirtyHi = uint32(len(v.mem))
	v.icount = v.m.InstrCount
	v.pc = int32(v.m.Master.PC)
	copy(v.regs[:isa.NumRegs], v.m.Master.Reg[:])
}

// syncOut publishes the VM state back to the machine: instruction count,
// dirty watermarks, and the master context. Inside a spawn the master is
// parked exactly where the interpreter leaves it (registers untouched, PC
// one past the spawn); the live parallel context stays VM-local and is
// observable via Current.
func (v *VM) syncOut() {
	v.m.InstrCount = v.icount
	v.m.WidenDirty(v.dirtyLo, v.dirtyHi)
	v.dirtyLo = 0
	v.dirtyHi = uint32(len(v.mem))
	if v.inParallel {
		v.m.Master.Reg = v.masterRegs
		v.m.Master.PC = int(v.masterPC)
	} else {
		copy(v.m.Master.Reg[:], v.regs[:isa.NumRegs])
		v.m.Master.PC = int(v.pc)
	}
}

// dirty widens the local watermarks for a store of n bytes at addr.
func (v *VM) dirty(addr, n uint32) {
	if addr < v.memHalf {
		if addr+n > v.dirtyLo {
			v.dirtyLo = addr + n
		}
	} else if addr < v.dirtyHi {
		v.dirtyHi = addr
	}
}

// endSpawn leaves parallel mode and resumes the parked master after the
// join, mirroring the interpreter's endSpawn.
func (v *VM) endSpawn() *word {
	v.inParallel = false
	copy(v.regs[:isa.NumRegs], v.masterRegs[:])
	return v.savedW
}

// fail records a wrapped runtime error, identical in shape and message to
// the interpreter's, and stops dispatch. The failing instruction's index
// is recovered from the word's own fallthrough pc.
func (v *VM) fail(w *word, err error) *word {
	pc := int(w.next) - 1
	v.pc = w.next // the interpreter advances PC before executing
	v.err = &funcmodel.RuntimeError{PC: pc, Line: v.text[pc].Line, In: v.text[pc], Err: err}
	v.reason = rErr
	return nil
}

// run is the hot dispatch loop: execute from v.pc until a handler stops
// (halt, error, checkpoint) or limit instructions have run in total.
// Control flow is pointer-threaded: each handler returns the next word
// directly (nil to stop), so the loop performs no bounds-checked indexing
// and no pc arithmetic — the stopping handler or the budget path below
// are the only places the numeric pc is materialized.
//
// While at least maxSpan instructions remain, each dispatch calls the
// word's run handler, which may execute a whole fused idiom and counts its
// span. The last few instructions of the budget run plain words, so a
// budget stops at exactly the instruction it names.
func (v *VM) run(limit uint64) int {
	pc := v.pc
	if pc < 0 || pc > v.textLen {
		id := -1
		if v.inParallel {
			id = 0
		}
		v.err = fmt.Errorf("funcvm: PC %d outside program (context %d)", pc, id)
		v.reason = rErr
		return rErr
	}
	w := &v.code[pc]
	// Count instructions in a register: n counts down from the burst's
	// allowance and v.icount is settled once at the stop. Handlers never
	// see a live count (hSysCycle and hOutside stop the burst instead).
	// A burst always executes at least one instruction, like the
	// interpreter's step loop.
	rem := uint64(1)
	if limit > v.icount {
		rem = limit - v.icount
	}
	n := rem
	for n >= maxSpan {
		n -= uint64(w.span)
		if w = w.run(v, w); w == nil {
			return v.stopped(rem - n)
		}
	}
	for n > 0 {
		n--
		if w = w.plain(v, w); w == nil {
			return v.stopped(rem - n)
		}
	}
	v.icount += rem
	v.pc = w.next - 1 // every word's next is its own index + 1
	return rBudget
}

// stopped settles the count of a burst that a handler stopped after
// executed instructions and returns the stop reason.
func (v *VM) stopped(executed uint64) int {
	v.icount += executed
	if v.reason == rOutside {
		v.icount-- // the sentinel is a fetch error, not an instruction
		v.reason = rErr
	}
	return v.reason
}

// runTraced is the dispatch loop with the machine's Trace hook active: the
// hook sees the same context snapshot (PC already advanced, registers
// pre-execution) as the interpreter's, so it runs plain words only.
func (v *VM) runTraced(limit uint64) int {
	pc := v.pc
	if pc < 0 || pc > v.textLen {
		id := -1
		if v.inParallel {
			id = 0
		}
		v.err = fmt.Errorf("funcvm: PC %d outside program (context %d)", pc, id)
		v.reason = rErr
		return rErr
	}
	w := &v.code[pc]
	rem := uint64(1)
	if limit > v.icount {
		rem = limit - v.icount
	}
	n := rem
	for {
		if idx := w.next - 1; idx < v.textLen && v.m.Trace != nil {
			v.scratch = funcmodel.Context{ID: -1, IsMaster: true, PC: int(idx) + 1}
			if v.inParallel {
				v.scratch.ID, v.scratch.IsMaster = 0, false
			}
			copy(v.scratch.Reg[:], v.regs[:isa.NumRegs])
			v.m.Trace(&v.scratch, v.text[idx])
		}
		n--
		if w = w.plain(v, w); w == nil {
			return v.stopped(rem - n)
		}
		if n == 0 {
			v.icount += rem
			v.pc = w.next - 1
			return rBudget
		}
	}
}

func (v *VM) dispatch(limit uint64) int {
	if v.m.Trace != nil {
		return v.runTraced(limit)
	}
	return v.run(limit)
}

// handleCheckpoint services a sys checkpoint pause: with OnCheckpoint set
// the machine is synchronized, the callback runs, the request flag is
// cleared and the (possibly externally mutated) state reloaded.
func (v *VM) handleCheckpoint() error {
	v.syncOut()
	if v.OnCheckpoint == nil {
		return nil
	}
	if err := v.OnCheckpoint(v.m); err != nil {
		return err
	}
	v.m.CheckpointRequested = false
	v.syncIn()
	return nil
}

// Run executes until halt or an error, with an instruction budget guarding
// against runaway programs (budget <= 0 means no limit), mirroring
// Machine.Run.
func (v *VM) Run(budget uint64) error {
	if v.m.Halted {
		return nil
	}
	limit := uint64(math.MaxUint64)
	if budget > 0 {
		limit = budget
	}
	for {
		switch v.dispatch(limit) {
		case rHalt:
			v.syncOut()
			return nil
		case rErr:
			v.syncOut()
			return v.err
		case rBudget:
			v.syncOut()
			return fmt.Errorf("funcvm: instruction budget %d exhausted (runaway program?)", budget)
		case rCheckpoint:
			if err := v.handleCheckpoint(); err != nil {
				return err
			}
		case rCycle:
			v.serviceCycleRead()
			if v.icount >= limit {
				v.syncOut()
				return fmt.Errorf("funcvm: instruction budget %d exhausted (runaway program?)", budget)
			}
		}
	}
}

// serviceCycleRead completes a sys cycle trap: v.icount is already exact
// (the burst's stop accounting includes the trap itself), so the default
// CycleFn observes the same instruction count as under the interpreter.
func (v *VM) serviceCycleRead() {
	v.m.InstrCount = v.icount
	v.regs[2] = int32(v.m.CycleFn())
}

// RunTo executes until at least target instructions have run and the VM is
// Quiescent, or until it halts or errors. At return the machine is fully
// synchronized, so a checkpoint captured there is complete and resumable
// under either backend (mirrors Machine.RunTo).
func (v *VM) RunTo(target uint64) error {
	for !v.m.Halted {
		if v.icount >= target && v.Quiescent() {
			v.syncOut()
			return nil
		}
		limit := target
		if v.icount >= limit {
			// Past the target but not quiescent: single-step to the next
			// quiescent point (spawn regions are finite in well-formed
			// programs).
			limit = v.icount + 1
		}
		switch v.dispatch(limit) {
		case rHalt:
			v.syncOut()
			return nil
		case rErr:
			v.syncOut()
			return v.err
		case rBudget:
			// Reached the limit; loop to re-check quiescence.
		case rCheckpoint:
			if err := v.handleCheckpoint(); err != nil {
				return err
			}
		case rCycle:
			v.serviceCycleRead()
		}
	}
	return nil
}
