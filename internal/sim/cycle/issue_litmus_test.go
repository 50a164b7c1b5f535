package cycle_test

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"xmtgo/internal/config"
	"xmtgo/internal/isa"
	"xmtgo/internal/sim/cycle"
	"xmtgo/internal/sim/funcmodel"
)

// everyOpSnippets returns one snippet per opcode a context may execute, each
// leaving a result in $t2 that depends on which operand landed in which
// slot (non-commutative operand pairs, distinct register values, immediates
// that exercise the fold). The caller stores $t2 after every snippet, so a
// wrong rd/rs/rt slot, immediate or branch target in the cycle model's
// issue record changes memory. scratch is the register holding the section's
// scratch area; labels get a per-section suffix.
//
// Preset registers: $t0 = 0x12345, $t1 = -7, $a2 = 3, $t4 = 3.0f, $t5 = 0.5f,
// $t6 = 9.
func everyOpSnippets(scratch string, parallel bool) []string {
	s := []string{
		"li $t2, 11\n nop",
		"add $t2, $t0, $t1", "addu $t2, $t0, $t1", "sub $t2, $t0, $t1", "subu $t2, $t1, $t0",
		"and $t2, $t0, $t1", "or $t2, $t0, $t1", "xor $t2, $t0, $t1", "nor $t2, $t0, $t1",
		"slt $t2, $t1, $t0", "sltu $t2, $t0, $t1",
		"addi $t2, $t0, -100", "addiu $t2, $t1, 100",
		"andi $t2, $t1, 0xff0f", "ori $t2, $t0, 0x8001", "xori $t2, $t1, 0xffff",
		"slti $t2, $t1, -6", "sltiu $t2, $t0, -1", "lui $t2, 0x1234",
		"sll $t2, $t0, 5", "srl $t2, $t1, 4", "sra $t2, $t1, 2",
		"sllv $t2, $t0, $a2", "srlv $t2, $t1, $a2", "srav $t2, $t1, $a2",
		"mul $t2, $t0, $t1", "mulu $t2, $t0, $t1", "div $t2, $t0, $t1", "divu $t2, $t1, $t0",
		"rem $t2, $t0, $t1", "remu $t2, $t1, $t0",
		"add.s $t2, $t4, $t5", "sub.s $t2, $t4, $t5", "mul.s $t2, $t4, $t5", "div.s $t2, $t4, $t5",
		"neg.s $t2, $t4", "neg.s $t3, $t4\n abs.s $t2, $t3", "sqrt.s $t2, $t4",
		"cvt.s.w $t2, $t6", "cvt.w.s $t2, $t4",
		"c.eq.s $t2, $t4, $t4", "c.lt.s $t2, $t5, $t4", "c.le.s $t2, $t4, $t5",

		// Branches: $t2 records whether the fall-through ran.
		"li $t2, 0\n beq $t0, $t1, Lbeq@\n addiu $t2, $t2, 1\nLbeq@:",
		"li $t2, 0\n bne $t0, $t1, Lbne@\n addiu $t2, $t2, 1\nLbne@:",
		"li $t2, 0\n blez $t1, Lblez@\n addiu $t2, $t2, 1\nLblez@:",
		"li $t2, 0\n bgtz $t1, Lbgtz@\n addiu $t2, $t2, 1\nLbgtz@:",
		"li $t2, 0\n bltz $t0, Lbltz@\n addiu $t2, $t2, 1\nLbltz@:",
		"li $t2, 0\n bgez $t0, Lbgez@\n addiu $t2, $t2, 1\nLbgez@:",
		// j skips a poison write; jal/jr and jalr record their link values.
		"li $t2, 5\n j Lj@\n li $t2, 666\nLj@:",
		"jal Lsub@\n j Ljal@\nLsub@: addu $t2, $ra, $zero\n jr $ra\nLjal@:",
		"la $t3, Lsub2@\n jalr $t3\n j Ljalr@\nLsub2@: addiu $t2, $ra, 1000\n jr $ra\nLjalr@:",

		// Memory: scratch words 0..7 are preset to 101..108, words 8..15 (the
		// next cache line on fpga64) to 201..208.
		"sw $t0, 0(" + scratch + ")\n lw $t2, 0(" + scratch + ")",
		"sb $t1, 5(" + scratch + ")\n lb $t2, 5(" + scratch + ")",
		"lbu $t2, 5(" + scratch + ")",
		"sw.nb $t1, 8(" + scratch + ")\n fence\n lw $t2, 8(" + scratch + ")",
		"pref $zero, 32(" + scratch + ")\n lw $t2, 36(" + scratch + ")", // load waits on the in-flight fill
		"lw $t2, 40(" + scratch + ")",                                   // load served from the filled buffer
		"lwro $t2, 12(" + scratch + ")",
		"li $t2, 5\n psm $t2, 16(" + scratch + ")",
		"lw $t2, 16(" + scratch + ")",
		"li $t2, 1\n ps $t2, g1",
		"grw $t0, g2\n grr $t2, g2",
		"li $v0, 77\n sys 1\n addu $t2, $v0, $zero",
	}
	for i := range s {
		tag := "m"
		if parallel {
			tag = "p"
		}
		s[i] = strings.ReplaceAll(s[i], "@", tag)
	}
	return s
}

// everyOpProgram assembles the litmus: the master runs every opcode it may
// execute once, spawns a single virtual thread whose TCU does the same, and
// both store every result.
func everyOpProgram() string {
	const preset = `
        li $t0, 0x12345
        li $t1, -7
        li $a2, 3
        li $t4, 0x40400000
        li $t5, 0x3f000000
        li $t6, 9
`
	var b strings.Builder
	emit := func(snips []string, res string) {
		for i, sn := range snips {
			fmt.Fprintf(&b, " %s\n sw $t2, %d(%s)\n", sn, 4*i, res)
		}
	}
	b.WriteString(`
        .data
S1:     .word 101, 102, 103, 104, 105, 106, 107, 108, 201, 202, 203, 204, 205, 206, 207, 208
S2:     .word 101, 102, 103, 104, 105, 106, 107, 108, 201, 202, 203, 204, 205, 206, 207, 208
R1:     .space 512
R2:     .space 512
        .text
main:
        la $s1, S1
        la $s0, R1
`)
	b.WriteString(preset)
	emit(everyOpSnippets("$s1", false), "$s0")
	b.WriteString(`
        la $s1, S2
        la $s0, R2
        bcast $s0
        bcast $s1
        li $a0, 0
        li $a1, 0
        fence
        spawn $a0, $a1
Lgrab:  addiu $tid, $zero, 1
        ps $tid, g63
        chkid $tid
`)
	b.WriteString(preset)
	emit(everyOpSnippets("$s1", true), "$s0")
	b.WriteString(`
        join
        sys 0
`)
	return b.String()
}

// TestEveryOpcodeCycleMatchesFunctional is the every-opcode-once litmus for
// the lowered issue stream: a program that executes each isa.Op on the
// master and (where legal) on a TCU, storing every result, must leave the
// same memory, global registers, master registers and output under the
// cycle model as under the functional interpreter — whose semantics never
// go through an issue record.
func TestEveryOpcodeCycleMatchesFunctional(t *testing.T) {
	src := everyOpProgram()
	p := mustProgram(t, src)

	// The program really is "every opcode": each op appears on the serial
	// path and inside the spawn region, except the ones that are illegal
	// there.
	if len(p.Spawns) != 1 {
		t.Fatalf("litmus has %d spawn regions, want 1", len(p.Spawns))
	}
	region := p.Spawns[0]
	var serial, par [isa.NumOps]bool
	for pc, in := range p.Text {
		if pc > region.Spawn && pc <= region.Join {
			par[in.Op] = true
		} else {
			serial[in.Op] = true
		}
	}
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		if !serial[op] && op != isa.OpJoin && op != isa.OpChkid {
			t.Errorf("litmus never runs %s on the master", op)
		}
		if !par[op] && op != isa.OpSpawn && op != isa.OpBcast {
			t.Errorf("litmus never runs %s on a TCU", op)
		}
	}

	cfg := config.FPGA64()
	var fOut bytes.Buffer
	fm, err := funcmodel.New(p, cfg.MemBytes, &fOut)
	if err != nil {
		t.Fatal(err)
	}
	if err := fm.Run(1_000_000); err != nil {
		t.Fatalf("functional: %v", err)
	}

	for _, mode := range []string{config.EngineWindowed, config.EngineOptimistic} {
		ccfg := cfg
		ccfg.EngineMode = mode
		var cOut bytes.Buffer
		sys, err := cycle.New(p, ccfg, &cOut)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(10_000_000)
		if err != nil || !res.Halted {
			t.Fatalf("%s: cycle run: halted=%v err=%v", mode, res != nil && res.Halted, err)
		}
		if got, want := cOut.String(), fOut.String(); got != want {
			t.Errorf("%s: output %q, functional %q", mode, got, want)
		}
		if !bytes.Equal(sys.Machine.Mem, fm.Mem) {
			for a := 0; a+4 <= len(fm.Mem); a += 4 {
				if !bytes.Equal(sys.Machine.Mem[a:a+4], fm.Mem[a:a+4]) {
					t.Errorf("%s: memory differs at 0x%x (%s): cycle % x, functional % x",
						mode, a, p.SymbolAt(uint32(a)), sys.Machine.Mem[a:a+4], fm.Mem[a:a+4])
				}
			}
		}
		for g := range fm.G {
			// g63 is the hardware grab counter: every TCU of the cycle model
			// takes a losing ticket, the serialized functional TCU takes one.
			if isa.GReg(g) != isa.GRegSpawn && sys.Machine.G[g] != fm.G[g] {
				t.Errorf("%s: g%d = %d, functional %d", mode, g, sys.Machine.G[g], fm.G[g])
			}
		}
		if got, want := sys.MasterContext().Reg, fm.Master.Reg; got != want {
			t.Errorf("%s: master registers differ:\n cycle      %v\n functional %v", mode, got, want)
		}
		if res.Instrs == 0 || sys.Stats.TCUInstrs() == 0 {
			t.Errorf("%s: no instructions counted (total %d, tcu %d)", mode, res.Instrs, sys.Stats.TCUInstrs())
		}
	}
}

// TestNewRejectsUnissuableProgram: an instruction without an issue class
// stops the cycle model when the system is built, with the lowering's
// diagnostic — not when a TCU fetches it.
func TestNewRejectsUnissuableProgram(t *testing.T) {
	p := mustProgram(t, "\t.text\nmain:\tsys 0\n")
	p.Text = append(p.Text, isa.Instr{Op: isa.Op(isa.NumOps), Line: 3})
	_, err := cycle.New(p, config.FPGA64(), nil)
	if err == nil || !strings.Contains(err.Error(), "has no issue class") {
		t.Fatalf("cycle.New = %v, want the lowering's no-issue-class error", err)
	}
}

// seqFilter is an order-sensitive filter plug-in: it folds the sequence of
// its Instr and Mem callbacks into a hash.
type seqFilter struct{ h uint64 }

func (f *seqFilter) Name() string { return "seq" }
func (f *seqFilter) Instr(op isa.Op, master bool) {
	f.h = f.h*1099511628211 + uint64(op)<<1
	if master {
		f.h++
	}
}
func (f *seqFilter) Mem(addr uint32, op isa.Op, module int, hit bool) {
	f.h = f.h*1099511628211 + uint64(addr)<<16 + uint64(op)
}
func (f *seqFilter) Report(io.Writer) {}

// TestFilterCallbackOrderIsEngineIndependent: TCU instruction callbacks
// reach a filter plug-in at commit, in (cycle, cluster) order and in issue
// order within a cluster, so it sees the same callback sequence whatever
// the window size, engine mode or worker count.
func TestFilterCallbackOrderIsEngineIndependent(t *testing.T) {
	p := mustProgram(t, compactionAsm)
	var want uint64
	for i, v := range []func(*config.Config){
		func(c *config.Config) { c.Lookahead = 1; c.HostWorkers = 1 },
		func(c *config.Config) { c.HostWorkers = 1 },
		func(c *config.Config) { c.Lookahead = 3; c.HostWorkers = 2 },
		func(c *config.Config) { c.EngineMode = config.EngineOptimistic; c.HostWorkers = 4 },
	} {
		cfg := config.FPGA64()
		v(&cfg)
		sys, err := cycle.New(p, cfg, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		f := &seqFilter{}
		sys.Stats.AddFilter(f)
		if res, err := sys.Run(1_000_000); err != nil || !res.Halted {
			t.Fatalf("variant %d: halted=%v err=%v", i, res != nil && res.Halted, err)
		}
		if i == 0 {
			want = f.h
		} else if f.h != want {
			t.Errorf("variant %d: filter callback sequence hash %x, single-cycle engine %x", i, f.h, want)
		}
	}
}
