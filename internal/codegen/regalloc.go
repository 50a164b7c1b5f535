package codegen

import (
	"fmt"
	"sort"

	"xmtgo/internal/bitset"
	"xmtgo/internal/ir"
	"xmtgo/internal/isa"
)

// Register allocation is a linear scan over live intervals built from the
// block-level liveness solution. Registers are split into a caller-saved
// pool and a callee-saved pool; intervals that span a call site must take a
// callee-saved register or spill. Intervals that overlap a spawn region
// must not spill: parallel code has no stack, so the allocator reports the
// paper's "register spill error" (§IV-D) instead.

var callerSaved = []isa.Reg{
	isa.RegT0, isa.RegT0 + 1, isa.RegT0 + 2, isa.RegT0 + 3,
	isa.RegT0 + 4, isa.RegT0 + 5, isa.RegT0 + 6, isa.RegT0 + 7,
	isa.RegT8, isa.RegT9, isa.RegV1, isa.RegTID,
}

var calleeSaved = []isa.Reg{
	isa.RegS0, isa.RegS0 + 1, isa.RegS0 + 2, isa.RegS0 + 3,
	isa.RegS0 + 4, isa.RegS0 + 5, isa.RegS0 + 6, isa.RegS0 + 7,
	isa.RegGP,
}

// interval is one vreg's live range over the linearized instruction order.
type interval struct {
	v          ir.VReg
	start, end int
	crossCall  bool
	inSpawn    bool

	reg     isa.Reg
	spilled bool
	slot    int // spill slot index
}

// allocation is the result of register allocation.
type allocation struct {
	regOf     map[ir.VReg]isa.Reg
	slotOf    map[ir.VReg]int
	numSpills int
	usedSaved []isa.Reg // callee-saved registers written (to save/restore)
	// bcast lists the physical registers that must be broadcast before
	// each spawn (live-in registers of the spawn region), per spawn id.
	bcast map[int][]isa.Reg
}

// SpillError is the paper's "register spill error" for parallel code.
type SpillError struct {
	Func string
	VReg ir.VReg
}

func (e *SpillError) Error() string {
	return fmt.Sprintf("codegen: %s: register spill in parallel code (spawn block needs more registers than available; simplify the spawn body or move values to global memory)", e.Func)
}

// linearize numbers instructions in layout order and returns block start
// positions.
func linearize(f *ir.Func) (blockStart []int, total int) {
	blockStart = make([]int, len(f.Blocks))
	pos := 0
	for i, b := range f.Blocks {
		blockStart[i] = pos
		pos += len(b.Instrs) + 1 // +1 keeps block boundaries distinct
	}
	return blockStart, pos
}

// buildIntervals computes live intervals and their call-crossing and
// spawn-overlap flags, in order of start and then vreg.
func buildIntervals(f *ir.Func) []*interval {
	f.Liveness()
	blockStart, _ := linearize(f)

	iv := make([]interval, f.NumVRegs)
	seen := bitset.New(f.NumVRegs)
	touch := func(v ir.VReg, p int, inSpawn bool) {
		it := &iv[v]
		if !seen.Has(int(v)) {
			seen.Set(int(v))
			*it = interval{v: v, start: p, end: p}
		}
		it.start = min(it.start, p)
		it.end = max(it.end, p)
		it.inSpawn = it.inSpawn || inSpawn
	}

	var callPos []int
	var buf []ir.VReg
	for bi, b := range f.Blocks {
		bStart := blockStart[bi]
		bEnd := bStart + len(b.Instrs)
		inSpawn := b.SpawnID > 0
		for v := b.LiveIn().Next(0); v >= 0; v = b.LiveIn().Next(v + 1) {
			touch(ir.VReg(v), bStart, inSpawn)
		}
		for v := b.LiveOut().Next(0); v >= 0; v = b.LiveOut().Next(v + 1) {
			touch(ir.VReg(v), bEnd, inSpawn)
		}
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			p := bStart + ii
			buf = in.Uses(buf)
			for _, u := range buf {
				touch(u, p, inSpawn)
			}
			if d := in.Def(); d != ir.NoReg {
				touch(d, p, inSpawn)
			}
			if in.Op == ir.Call {
				callPos = append(callPos, p)
			}
		}
	}

	var out []*interval
	for v := seen.Next(0); v >= 0; v = seen.Next(v + 1) {
		it := &iv[v]
		for _, cp := range callPos {
			if it.start < cp && cp < it.end {
				it.crossCall = true
				break
			}
		}
		out = append(out, it)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].start != out[j].start {
			return out[i].start < out[j].start
		}
		return out[i].v < out[j].v
	})
	return out
}

// allocate runs the linear scan.
func allocate(f *ir.Func) (*allocation, error) {
	intervals := buildIntervals(f)

	type activeReg struct {
		it *interval
	}
	free := make(map[isa.Reg]bool)
	for _, r := range callerSaved {
		free[r] = true
	}
	for _, r := range calleeSaved {
		free[r] = true
	}
	isCalleeSaved := make(map[isa.Reg]bool)
	for _, r := range calleeSaved {
		isCalleeSaved[r] = true
	}

	var active []*interval
	expire := func(pos int) {
		kept := active[:0]
		for _, a := range active {
			if a.end < pos {
				if !a.spilled {
					free[a.reg] = true
				}
			} else {
				kept = append(kept, a)
			}
		}
		active = kept
	}

	takeFrom := func(pool []isa.Reg) (isa.Reg, bool) {
		for _, r := range pool {
			if free[r] {
				free[r] = false
				return r, true
			}
		}
		return 0, false
	}

	alloc := &allocation{
		regOf:  make(map[ir.VReg]isa.Reg),
		slotOf: make(map[ir.VReg]int),
		bcast:  make(map[int][]isa.Reg),
	}
	usedSaved := make(map[isa.Reg]bool)

	for _, it := range intervals {
		expire(it.start)
		var r isa.Reg
		var ok bool
		if it.crossCall {
			r, ok = takeFrom(calleeSaved)
		} else {
			r, ok = takeFrom(callerSaved)
			if !ok {
				r, ok = takeFrom(calleeSaved)
			}
		}
		if !ok {
			// Spill: prefer spilling the active interval with the furthest
			// end if it frees a compatible register and this interval is
			// in a spawn region (which cannot spill).
			if it.inSpawn {
				victimIdx := -1
				for i, a := range active {
					if a.spilled || a.inSpawn {
						continue
					}
					if it.crossCall && !isCalleeSaved[a.reg] {
						continue
					}
					if victimIdx < 0 || a.end > active[victimIdx].end {
						victimIdx = i
					}
				}
				if victimIdx < 0 {
					return nil, &SpillError{Func: f.Name, VReg: it.v}
				}
				victim := active[victimIdx]
				r = victim.reg
				victim.spilled = true
				victim.slot = alloc.numSpills
				alloc.numSpills++
				alloc.regOf[victim.v] = 0
				delete(alloc.regOf, victim.v)
				alloc.slotOf[victim.v] = victim.slot
				it.reg = r
				alloc.regOf[it.v] = r
				if isCalleeSaved[r] {
					usedSaved[r] = true
				}
				active = append(active, it)
				continue
			}
			it.spilled = true
			it.slot = alloc.numSpills
			alloc.numSpills++
			alloc.slotOf[it.v] = it.slot
			active = append(active, it)
			continue
		}
		it.reg = r
		alloc.regOf[it.v] = r
		if isCalleeSaved[r] {
			usedSaved[r] = true
		}
		active = append(active, it)
	}

	for r := range usedSaved {
		alloc.usedSaved = append(alloc.usedSaved, r)
	}
	sort.Slice(alloc.usedSaved, func(i, j int) bool { return alloc.usedSaved[i] < alloc.usedSaved[j] })

	// Compute the broadcast register sets: the registers live into each
	// spawn region's first block (the grab loop) that were defined before
	// the spawn — the master must bcast them to the TCUs (paper §IV-B).
	for bi, b := range f.Blocks {
		if b.SpawnID == 0 {
			continue
		}
		// First block of this region?
		if bi > 0 && f.Blocks[bi-1].SpawnID == b.SpawnID {
			continue
		}
		var regs []isa.Reg
		seen := make(map[isa.Reg]bool)
		for i := b.LiveIn().Next(0); i >= 0; i = b.LiveIn().Next(i + 1) {
			v := ir.VReg(i)
			if r, ok := alloc.regOf[v]; ok && !seen[r] {
				seen[r] = true
				regs = append(regs, r)
			} else if _, sp := alloc.slotOf[v]; sp {
				return nil, &SpillError{Func: f.Name, VReg: v}
			}
		}
		sort.Slice(regs, func(i, j int) bool { return regs[i] < regs[j] })
		alloc.bcast[b.SpawnID] = regs
	}
	return alloc, nil
}
