package ir

import "testing"

// buildLinear makes a function with one block from the given instructions.
func buildLinear(instrs ...Instr) *Func {
	f := &Func{Name: "t"}
	b := f.NewBlock("entry")
	max := VReg(0)
	for _, in := range instrs {
		b.Emit(in)
		for _, v := range []VReg{in.Dst, in.A, in.B} {
			if v > max {
				max = v
			}
		}
	}
	f.NumVRegs = int(max) + 1
	b.Emit(Instr{Op: Ret, A: NoReg, Dst: NoReg, B: NoReg})
	return f
}

func TestConstantFolding(t *testing.T) {
	f := buildLinear(
		Instr{Op: LdImm, Dst: 0, Imm: 6, A: NoReg, B: NoReg},
		Instr{Op: LdImm, Dst: 1, Imm: 7, A: NoReg, B: NoReg},
		Instr{Op: Mul, Dst: 2, A: 0, B: 1},
		Instr{Op: Store, A: 2, B: 2, Size: 4},
	)
	f.Optimize(1)
	// The multiply must fold to LdImm 42.
	found := false
	for _, in := range f.Blocks[0].Instrs {
		if in.Op == LdImm && in.Imm == 42 {
			found = true
		}
		if in.Op == Mul {
			t.Fatal("multiply not folded")
		}
	}
	if !found {
		t.Fatalf("folded constant missing:\n%s", f.Dump())
	}
}

func TestStrengthReduction(t *testing.T) {
	f := buildLinear(
		Instr{Op: LdImm, Dst: 0, Imm: 8, A: NoReg, B: NoReg},
		Instr{Op: Load, Dst: 1, A: 0, Size: 4, Volatile: true},
		Instr{Op: Mul, Dst: 2, A: 1, B: 0},
		Instr{Op: Store, A: 2, B: 2, Size: 4},
	)
	f.Optimize(1)
	for _, in := range f.Blocks[0].Instrs {
		if in.Op == Mul {
			t.Fatalf("mul by 8 not strength-reduced:\n%s", f.Dump())
		}
	}
}

func TestRedundantLoadElimination(t *testing.T) {
	f := buildLinear(
		Instr{Op: LdImm, Dst: 0, Imm: 100, A: NoReg, B: NoReg},
		Instr{Op: Load, Dst: 1, A: 0, Size: 4},
		Instr{Op: Load, Dst: 2, A: 0, Size: 4}, // redundant
		Instr{Op: Add, Dst: 3, A: 1, B: 2},
		Instr{Op: Store, A: 0, B: 3, Size: 4},
	)
	f.Optimize(1)
	loads := 0
	for _, in := range f.Blocks[0].Instrs {
		if in.Op == Load {
			loads++
		}
	}
	if loads != 1 {
		t.Fatalf("loads = %d, want 1:\n%s", loads, f.Dump())
	}
}

func TestVolatileLoadsSurvive(t *testing.T) {
	f := buildLinear(
		Instr{Op: LdImm, Dst: 0, Imm: 100, A: NoReg, B: NoReg},
		Instr{Op: Load, Dst: 1, A: 0, Size: 4, Volatile: true},
		Instr{Op: Load, Dst: 2, A: 0, Size: 4, Volatile: true},
		Instr{Op: Add, Dst: 3, A: 1, B: 2},
		Instr{Op: Store, A: 0, B: 3, Size: 4},
	)
	f.Optimize(1)
	loads := 0
	for _, in := range f.Blocks[0].Instrs {
		if in.Op == Load {
			loads++
		}
	}
	if loads != 2 {
		t.Fatalf("volatile loads = %d, want 2:\n%s", loads, f.Dump())
	}
}

// TestBarrierBlocksLoadCSE: a prefix-sum between two identical loads must
// keep both (the XMT memory-model constraint).
func TestBarrierBlocksLoadCSE(t *testing.T) {
	f := buildLinear(
		Instr{Op: LdImm, Dst: 0, Imm: 100, A: NoReg, B: NoReg},
		Instr{Op: Load, Dst: 1, A: 0, Size: 4},
		Instr{Op: LdImm, Dst: 4, Imm: 1, A: NoReg, B: NoReg},
		Instr{Op: Ps, Dst: 5, A: 4, G: 0},
		Instr{Op: Load, Dst: 2, A: 0, Size: 4}, // must survive: ps is a barrier
		Instr{Op: Add, Dst: 3, A: 1, B: 2},
		Instr{Op: Store, A: 0, B: 3, Size: 4},
		Instr{Op: Store, A: 0, B: 5, Imm: 4, Size: 4},
	)
	f.Optimize(1)
	loads := 0
	for _, in := range f.Blocks[0].Instrs {
		if in.Op == Load {
			loads++
		}
	}
	if loads != 2 {
		t.Fatalf("loads across ps = %d, want 2:\n%s", loads, f.Dump())
	}
}

func TestStoreForwarding(t *testing.T) {
	f := buildLinear(
		Instr{Op: LdImm, Dst: 0, Imm: 100, A: NoReg, B: NoReg},
		Instr{Op: LdImm, Dst: 1, Imm: 5, A: NoReg, B: NoReg},
		Instr{Op: Store, A: 0, B: 1, Size: 4},
		Instr{Op: Load, Dst: 2, A: 0, Size: 4}, // forwarded from the store
		Instr{Op: Store, A: 0, B: 2, Imm: 8, Size: 4},
	)
	f.Optimize(1)
	loads := 0
	for _, in := range f.Blocks[0].Instrs {
		if in.Op == Load {
			loads++
		}
	}
	if loads != 0 {
		t.Fatalf("store-to-load forwarding failed:\n%s", f.Dump())
	}
}

func TestDCE(t *testing.T) {
	f := buildLinear(
		Instr{Op: LdImm, Dst: 0, Imm: 1, A: NoReg, B: NoReg}, // dead
		Instr{Op: LdImm, Dst: 1, Imm: 2, A: NoReg, B: NoReg},
		Instr{Op: Store, A: 1, B: 1, Size: 4},
	)
	f.Optimize(1)
	for _, in := range f.Blocks[0].Instrs {
		if in.Op == LdImm && in.Imm == 1 && in.Dst == 0 {
			t.Fatalf("dead LdImm survives:\n%s", f.Dump())
		}
	}
}

func TestUnreachableBlockRemoval(t *testing.T) {
	f := &Func{Name: "t"}
	b0 := f.NewBlock("entry")
	b1 := f.NewBlock("dead")
	b2 := f.NewBlock("live")
	f.NumVRegs = 1
	b0.Emit(Instr{Op: Jmp, Target: b2, A: NoReg, B: NoReg, Dst: NoReg})
	b1.Emit(Instr{Op: LdImm, Dst: 0, Imm: 9, A: NoReg, B: NoReg})
	b1.Emit(Instr{Op: Ret, A: NoReg, B: NoReg, Dst: NoReg})
	b2.Emit(Instr{Op: Ret, A: NoReg, B: NoReg, Dst: NoReg})
	f.Optimize(1)
	for _, b := range f.Blocks {
		if b.Label == "dead" {
			t.Fatal("unreachable block not removed")
		}
	}
}

func TestLivenessAcrossBlocks(t *testing.T) {
	f := &Func{Name: "t"}
	b0 := f.NewBlock("entry")
	b1 := f.NewBlock("body")
	f.NumVRegs = 2
	b0.Emit(Instr{Op: LdImm, Dst: 0, Imm: 3, A: NoReg, B: NoReg})
	b1.Emit(Instr{Op: Store, A: 0, B: 0, Size: 4})
	b1.Emit(Instr{Op: Ret, A: NoReg, B: NoReg, Dst: NoReg})
	f.Liveness()
	if !b1.LiveIn().Has(0) {
		t.Fatal("v0 must be live into body")
	}
	if !b0.LiveOut().Has(0) {
		t.Fatal("v0 must be live out of entry")
	}
}

func TestSuccsWithBrChain(t *testing.T) {
	f := &Func{Name: "t"}
	b0 := f.NewBlock("entry")
	b1 := f.NewBlock("t1")
	b2 := f.NewBlock("t2")
	f.NumVRegs = 2
	b0.Emit(Instr{Op: Br, Cond: BrEQ, A: 0, B: 1, Target: b1})
	b0.Emit(Instr{Op: Jmp, Target: b2, A: NoReg, B: NoReg})
	b1.Emit(Instr{Op: Ret, A: NoReg, B: NoReg, Dst: NoReg})
	b2.Emit(Instr{Op: Ret, A: NoReg, B: NoReg, Dst: NoReg})
	succs := f.Succs(0)
	if len(succs) != 2 {
		t.Fatalf("succs = %d, want both Br and Jmp targets", len(succs))
	}
}
