package funcvm_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"xmtgo/internal/asm"
	"xmtgo/internal/isa"
	"xmtgo/internal/sim/funcmodel"
	"xmtgo/internal/sim/funcvm"
)

func mustProgram(t *testing.T, src string) *asm.Program {
	t.Helper()
	u, err := asm.Parse("test.s", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := asm.Assemble(u)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

// compactionAsm exercises the whole XMT surface: data layout, bcast, spawn,
// the ps grab-loop, chkid-terminated virtual threads, ps to a user global,
// loads/stores and sys printing.
const compactionAsm = `
        .data
A:      .word 5, 0, 3, 0, 0, 9, 1, 0
B:      .space 32
        .text
        .global main
main:
        la    $t0, A
        la    $t1, B
        grw   $zero, g0
        bcast $t0
        bcast $t1
        li    $a0, 0
        li    $a1, 7
        spawn $a0, $a1
Lgrab:  addiu $tid, $zero, 1
        ps    $tid, g63
        chkid $tid
        sll   $t2, $tid, 2
        addu  $t2, $t0, $t2
        lw    $t3, 0($t2)
        beq   $t3, $zero, Lskip
        addiu $t4, $zero, 1
        ps    $t4, g0
        sll   $t4, $t4, 2
        addu  $t4, $t1, $t4
        sw    $t3, 0($t4)
Lskip:  j     Lgrab
        join
        grr   $v0, g0
        sys   1
        sys   0
`

// normalize maps the VM's backend-identifying error prefix onto the
// interpreter's so messages can be compared verbatim.
func normalize(err error) string {
	if err == nil {
		return ""
	}
	return strings.ReplaceAll(err.Error(), "funcvm:", "funcmodel:")
}

// runBoth executes src under the interpreter and the VM with the given
// budget and requires bit-identical architectural outcomes, the error
// (returned as the VM's) included.
func runBoth(t *testing.T, src string, budget uint64) (*funcmodel.Machine, *funcmodel.Machine, error) {
	t.Helper()
	p := mustProgram(t, src)

	var outI bytes.Buffer
	mi, err := funcmodel.New(p, 1<<20, &outI)
	if err != nil {
		t.Fatal(err)
	}
	errI := mi.Run(budget)

	var outV bytes.Buffer
	mv, err := funcmodel.New(p, 1<<20, &outV)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := funcvm.Attach(mv)
	if err != nil {
		t.Fatal(err)
	}
	errV := vm.Run(budget)

	if normalize(errI) != normalize(errV) {
		t.Fatalf("error divergence:\n  interp: %v\n  vm:     %v", errI, errV)
	}
	if outI.String() != outV.String() {
		t.Fatalf("output divergence:\n  interp: %q\n  vm:     %q", outI.String(), outV.String())
	}
	if mi.Halted != mv.Halted {
		t.Fatalf("halted divergence: interp=%v vm=%v", mi.Halted, mv.Halted)
	}
	if mi.InstrCount != mv.InstrCount {
		t.Fatalf("instruction count divergence: interp=%d vm=%d", mi.InstrCount, mv.InstrCount)
	}
	if mi.G != mv.G {
		t.Fatalf("global register divergence:\n  interp: %v\n  vm:     %v", mi.G, mv.G)
	}
	if mi.Master.Reg != mv.Master.Reg || mi.Master.PC != mv.Master.PC {
		t.Fatalf("master divergence:\n  interp: PC=%d %v\n  vm:     PC=%d %v",
			mi.Master.PC, mi.Master.Reg, mv.Master.PC, mv.Master.Reg)
	}
	if !bytes.Equal(mi.Mem, mv.Mem) {
		for i := range mi.Mem {
			if mi.Mem[i] != mv.Mem[i] {
				t.Fatalf("memory divergence at 0x%08x: interp=%#x vm=%#x", i, mi.Mem[i], mv.Mem[i])
			}
		}
	}
	return mi, mv, errV
}

func TestVMMatchesInterpreterCompaction(t *testing.T) {
	mi, _, _ := runBoth(t, compactionAsm, 1_000_000)
	if !mi.Halted {
		t.Fatal("program did not halt")
	}
}

func TestVMMatchesInterpreterSerial(t *testing.T) {
	// Serial-only program covering MDU, FPU, byte memory, jal/jr and the
	// full sys print set.
	src := `
        .data
S:      .asciiz "ok\n"
F:      .float 2.5
V:      .space 8
        .text
main:
        li    $t0, 100
        li    $t1, 7
        div   $t2, $t0, $t1
        rem   $t3, $t0, $t1
        mul   $t4, $t2, $t3
        la    $t5, V
        sb    $t4, 1($t5)
        lb    $t6, 1($t5)
        lbu   $t7, 1($t5)
        addu  $v0, $t6, $t7
        sys   1
        la    $a0, F
        lw    $t8, 0($a0)
        add.s $t9, $t8, $t8
        cvt.w.s $v0, $t9
        sys   1
        la    $v0, S
        sys   3
        jal   sub1
        li    $v0, 88
        sys   1
        sys   0
sub1:   jr    $ra
`
	mi, _, _ := runBoth(t, src, 1_000_000)
	if !mi.Halted {
		t.Fatal("program did not halt")
	}
}

func TestVMErrorParity(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string // substring of the shared error message
	}{
		{"div-zero", "main: li $t0, 4\n li $t1, 0\n div $t2, $t0, $t1\n sys 0\n", "integer division by zero"},
		{"join-serial", "main: j LJ\n li $a0, 0\n li $a1, 0\n spawn $a0, $a1\nLJ: join\n sys 0\n", "join executed in serial mode"},
		{"chkid-serial", "main: li $t0, 1\n chkid $t0\n sys 0\n", "chkid executed in serial mode"},
		{"jr-outside", "main: li $t0, 999\n jr $t0\n sys 0\n", "branch target 999 outside program"},
		{"unaligned-load", "main: li $t0, 3\n lw $t1, 0($t0)\n sys 0\n", "unaligned load at 0x00000003"},
		{"store-fault", "main: lui $t0, 4096\n sw $t0, 0($t0)\n sys 0\n", "store at 0x10000000"},
		{"ps-bad-inc", "main: li $a0, 0\n li $a1, 1\n spawn $a0, $a1\n li $tid, 5\n ps $tid, g1\n chkid $tid\n join\n sys 0\n", "ps increment must be 0 or 1, got 5"},
		{"fall-off-end", "main: li $t0, 1\n", "outside program (context -1)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := mustProgram(t, tc.src)
			mi, err := funcmodel.New(p, 1<<20, nil)
			if err != nil {
				t.Fatal(err)
			}
			errI := mi.Run(10_000)
			mv, err := funcmodel.New(p, 1<<20, nil)
			if err != nil {
				t.Fatal(err)
			}
			vm, err := funcvm.Attach(mv)
			if err != nil {
				t.Fatal(err)
			}
			errV := vm.Run(10_000)
			if errI == nil || errV == nil {
				t.Fatalf("expected errors, got interp=%v vm=%v", errI, errV)
			}
			if normalize(errI) != normalize(errV) {
				t.Fatalf("error divergence:\n  interp: %v\n  vm:     %v", errI, errV)
			}
			if !strings.Contains(normalize(errV), tc.want) {
				t.Fatalf("error %q does not contain %q", errV, tc.want)
			}
		})
	}
}

func TestVMBudgetParity(t *testing.T) {
	src := "main: j main\n"
	p := mustProgram(t, src)
	mi, _ := funcmodel.New(p, 1<<20, nil)
	errI := mi.Run(100)
	mv, _ := funcmodel.New(p, 1<<20, nil)
	vm, err := funcvm.Attach(mv)
	if err != nil {
		t.Fatal(err)
	}
	errV := vm.Run(100)
	if errI == nil || errV == nil {
		t.Fatalf("expected budget errors, got interp=%v vm=%v", errI, errV)
	}
	if normalize(errI) != normalize(errV) {
		t.Fatalf("budget error divergence:\n  interp: %v\n  vm:     %v", errI, errV)
	}
	if mi.InstrCount != 100 || mv.InstrCount != 100 {
		t.Fatalf("instruction counts: interp=%d vm=%d, want 100", mi.InstrCount, mv.InstrCount)
	}

	// A budget that ends at every offset of every fused word of
	// fusedLoopAsm, and everywhere else in it: the burst runs its last
	// instructions as plain words, so it stops at exactly the budget.
	full, _, err := runBoth(t, fusedLoopAsm, 0)
	if err != nil || !full.Halted {
		t.Fatalf("fusedLoopAsm: halted=%v err=%v", full.Halted, err)
	}
	for b := uint64(1); b < full.InstrCount; b++ {
		if mi, _, err := runBoth(t, fusedLoopAsm, b); err == nil || mi.InstrCount != b {
			t.Fatalf("budget %d: stopped after %d instructions, err %v", b, mi.InstrCount, err)
		}
	}
}

func TestVMTraceParity(t *testing.T) {
	p := mustProgram(t, compactionAsm)
	collect := func(m *funcmodel.Machine) *[]string {
		var seq []string
		m.Trace = func(ctx *funcmodel.Context, in isa.Instr) {
			seq = append(seq, fmt.Sprintf("%d@%d:%s:%d", ctx.ID, ctx.PC, in.Op, ctx.Reg[isa.RegTID]))
		}
		return &seq
	}
	mi, _ := funcmodel.New(p, 1<<20, nil)
	seqI := collect(mi)
	if err := mi.Run(100_000); err != nil {
		t.Fatal(err)
	}
	mv, _ := funcmodel.New(p, 1<<20, nil)
	seqV := collect(mv)
	vm, err := funcvm.Attach(mv)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(100_000); err != nil {
		t.Fatal(err)
	}
	if len(*seqI) != len(*seqV) {
		t.Fatalf("trace length divergence: interp=%d vm=%d", len(*seqI), len(*seqV))
	}
	for i := range *seqI {
		if (*seqI)[i] != (*seqV)[i] {
			t.Fatalf("trace divergence at step %d: interp=%q vm=%q", i, (*seqI)[i], (*seqV)[i])
		}
	}
}

func TestVMRunToStopsQuiescent(t *testing.T) {
	p := mustProgram(t, compactionAsm)
	mv, _ := funcmodel.New(p, 1<<20, &bytes.Buffer{})
	vm, err := funcvm.Attach(mv)
	if err != nil {
		t.Fatal(err)
	}
	// Target 10 lands inside the bcast/spawn prologue or the parallel
	// region; RunTo must push on to a quiescent point.
	if err := vm.RunTo(10); err != nil {
		t.Fatal(err)
	}
	if mv.Halted {
		t.Fatal("halted before expected")
	}
	if vm.InstrCount() < 10 {
		t.Fatalf("InstrCount = %d, want >= 10", vm.InstrCount())
	}
	if !vm.Quiescent() || !mv.Quiescent() {
		t.Fatal("RunTo stopped at a non-quiescent point")
	}
	if mv.InstrCount != vm.InstrCount() {
		t.Fatalf("sync mismatch: machine=%d vm=%d", mv.InstrCount, vm.InstrCount())
	}
	// Resuming must finish the program with the same result as a straight
	// interpreter run.
	if err := vm.Run(100_000); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	mi, _ := funcmodel.New(p, 1<<20, &out)
	if err := mi.Run(100_000); err != nil {
		t.Fatal(err)
	}
	if mi.InstrCount != mv.InstrCount || mi.G != mv.G {
		t.Fatalf("resumed run diverged: interp count=%d vm count=%d", mi.InstrCount, mv.InstrCount)
	}
}

func TestVMCheckpointCallback(t *testing.T) {
	src := `
main:
        li    $t0, 1
        sys   5
        li    $t1, 2
        sys   0
`
	p := mustProgram(t, src)
	mv, _ := funcmodel.New(p, 1<<20, nil)
	vm, err := funcvm.Attach(mv)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	vm.OnCheckpoint = func(m *funcmodel.Machine) error {
		calls++
		if !m.CheckpointRequested {
			t.Error("CheckpointRequested not set in callback")
		}
		if m.Master.Reg[isa.RegT0] != 1 {
			t.Errorf("master $t0 = %d in callback, want 1", m.Master.Reg[isa.RegT0])
		}
		return nil
	}
	if err := vm.Run(0); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("OnCheckpoint called %d times, want 1", calls)
	}
	if mv.CheckpointRequested {
		t.Fatal("CheckpointRequested not cleared after callback")
	}
	if !mv.Halted {
		t.Fatal("program did not halt")
	}
}

func TestCodeCacheReused(t *testing.T) {
	p := mustProgram(t, compactionAsm)
	c1 := funcvm.NewCode(p)
	c2 := funcvm.NewCode(p)
	if c1 != c2 {
		t.Fatal("NewCode did not reuse the program's cached lowering")
	}
	if c1.Len() != len(p.Text) {
		t.Fatalf("Code.Len = %d, want %d", c1.Len(), len(p.Text))
	}
}

func TestAttachRequiresQuiescence(t *testing.T) {
	p := mustProgram(t, compactionAsm)
	m, _ := funcmodel.New(p, 1<<20, &bytes.Buffer{})
	// Step the interpreter into the spawn region.
	for !m.InParallel() {
		if ok, err := m.Step(); err != nil || !ok {
			t.Fatalf("stepping to spawn: ok=%v err=%v", ok, err)
		}
	}
	if _, err := funcvm.Attach(m); err == nil {
		t.Fatal("Attach succeeded on a non-quiescent machine")
	}
}
