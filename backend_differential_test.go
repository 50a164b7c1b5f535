// Differential testing of the two functional-mode backends beyond the
// fixed conformance corpus: a fuzz target that drives arbitrary short
// assembly programs through the interpreter and the funcvm bytecode
// backend side by side, and a checkpoint cross-resume test proving a
// checkpoint taken under one backend resumes under the other. Both lean
// on the same invariant the conformance matrix enforces — the backends
// are bit-identical implementations of functional mode, down to the
// error message (modulo the funcvm:/funcmodel: prefix).
package xmtgo_test

import (
	"bytes"
	"strings"
	"testing"

	"xmtgo"
	"xmtgo/internal/asm"
	"xmtgo/internal/isa"
	"xmtgo/internal/sim/checkpoint"
	"xmtgo/internal/sim/funcmodel"
	"xmtgo/internal/sim/funcvm"
	"xmtgo/internal/workloads"
)

// normalizeBackendErr maps the VM's backend-identifying error prefix onto
// the interpreter's so messages compare verbatim.
func normalizeBackendErr(err error) string {
	if err == nil {
		return ""
	}
	return strings.ReplaceAll(err.Error(), "funcvm:", "funcmodel:")
}

// FuzzBackendDifferential runs arbitrary assembly through both functional
// backends and fails on any architectural divergence: final memory,
// registers, master context, instruction count, halt state, printf output
// or (normalized) error. Seeds are the compiled form of every workload
// generator plus handwritten snippets covering the XMT-specific surface
// (ps/psm/bcast/chkid/spawn and the sys trap set). Run at length with
//
//	go test -fuzz FuzzBackendDifferential -run '^$' .
//
// scripts/check.sh runs a short smoke of this target.
func FuzzBackendDifferential(f *testing.F) {
	seed := func(name, src string) {
		res, err := xmtgo.Compile(name, src, xmtgo.DefaultCompileOptions())
		if err != nil {
			f.Fatalf("seed %s: %v", name, err)
		}
		f.Add(xmtgo.PrintUnit(res.Unit))
	}
	for _, g := range []workloads.TableIGroup{
		workloads.ParallelMemory, workloads.ParallelCompute,
		workloads.SerialMemory, workloads.SerialCompute,
	} {
		seed("tableI-"+g.Name()+".c", workloads.TableI(g, 16, 4))
	}
	comp, _ := workloads.Compaction(32, 0.5, 3)
	seed("compaction.c", comp)
	redPar, redSer, _ := workloads.Reduction(64)
	seed("reduction-par.c", redPar)
	seed("reduction-ser.c", redSer)

	// Handwritten snippets: the XMT ops and traps the compiler emits only in
	// fixed patterns, in free-form combinations.
	f.Add("\t.data\nV:\t.word 1, 2, 3, 4\n\t.text\nmain:\tla $t0, V\n\tli $t1, 9\n\tpsm $t1, 0($t0)\n\tlw $v0, 0($t0)\n\tsys 1\n\tsys 0\n")
	f.Add("\t.text\nmain:\tli $t0, 5\n\tbcast $t0\n\tli $a0, 0\n\tli $a1, 3\n\tspawn $a0, $a1\n\tps $tid, g7\n\tchkid $tid\n\tjoin\n\tgrr $v0, g7\n\tsys 1\n\tsys 0\n")
	f.Add("\t.text\nmain:\tli $a0, 2\n\tli $a1, 1\n\tspawn $a0, $a1\n\tjoin\n\tsys 0\n")
	f.Add("\t.text\nmain:\tgrw $t0, g12\n\tgrr $t1, g12\n\tsys 4\n\tsys 5\n\tsys 0\n")
	f.Add("\t.data\nS:\t.asciiz \"x\"\nF:\t.float 1.5\n\t.text\nmain:\tla $v0, S\n\tsys 3\n\tla $t0, F\n\tlw $v0, 0($t0)\n\tsys 6\n\tli $v0, 10\n\tsys 2\n\tsys 0\n")
	f.Add("\t.text\nmain:\tli $t0, 7\n\tli $t1, 0\n\tdiv $t2, $t0, $t1\n\tsys 0\n")
	// The idioms the VM fuses into superinstructions (funcvm's fuse): a
	// loop over every one of them, a fault in a fused word's last member,
	// and a jump into a fused word's middle.
	f.Add("\t.data\nA:\t.word 1, 2, 3, 4, 5, 6, 7, 8\n\t.text\nmain:\tli $t1, 0\nL:\tslti $t4, $t1, 6\n\tbgtz $t4, B\n\tj E\n" +
		"B:\tla $t0, A\n\tsll $t2, $t1, 2\n\taddu $t2, $t0, $t2\n\tlw $t3, 0($t2)\n" +
		"\tla $t0, A\n\tsll $t2, $t1, 2\n\taddu $t2, $t2, $t0\n\tsw $t3, 4($t2)\n" +
		"\tla $t0, A\n\tsll $t2, $t1, 2\n\taddu $t2, $t0, $t2\n\tsw.nb $t1, 0($t2)\n" +
		"\tla $t0, A\n\tsll $t5, $t1, 2\n\taddu $t6, $t0, $t5\n\tpref $zero, 0($t6)\n" +
		"\tsll $t5, $t1, 2\n\taddu $t6, $t0, $t5\n\tlw $t7, 0($t6)\n\tslt $t4, $t1, $t3\n\tbgtz $t4, C\n" +
		"C:\taddiu $t0, $t1, 1\n\taddu $t1, $t0, $zero\n\tj L\nE:\taddu $v0, $t7, $t3\n\tsys 1\n\tsys 0\n")
	f.Add("\t.data\nA:\t.word 1, 2\n\t.text\nmain:\tli $t1, 1\n\tla $t0, A\n\tsll $t2, $t1, 1\n\taddu $t2, $t0, $t2\n\tlw $t3, 0($t2)\n\tsys 0\n")
	f.Add("\t.data\nA:\t.word 1, 2\n\t.text\nmain:\tla $t0, A\n\tli $t1, 1\n\tj M\n\tsll $t2, $t1, 2\nM:\taddu $t2, $t0, $t2\n\tlw $v0, 0($t2)\n\tsys 1\n\tsys 0\n")

	f.Fuzz(func(t *testing.T, src string) {
		u, err := asm.Parse("fuzz.s", src)
		if err != nil {
			return
		}
		p, err := asm.Assemble(u)
		if err != nil {
			return
		}
		// Small budget: mutated inputs routinely contain tight infinite
		// loops, and each exec pays it twice. Budget exhaustion itself is a
		// compared outcome (message and instruction-count parity).
		const budget = 20_000

		// 1 MiB machines (the stack adapts to the memory size): the default
		// 16 MiB image makes each exec ~1s under the fuzz engine.
		const memBytes = 1 << 20

		var outI bytes.Buffer
		mi, err := funcmodel.New(p, memBytes, &outI)
		if err != nil {
			return
		}
		defer mi.ReleaseMemory()
		errI := mi.Run(budget)

		var outV bytes.Buffer
		mv, err := funcmodel.New(p, memBytes, &outV)
		if err != nil {
			t.Fatalf("second machine for same program failed: %v", err)
		}
		defer mv.ReleaseMemory()
		vm, err := funcvm.Attach(mv)
		if err != nil {
			t.Fatalf("attach: %v", err)
		}
		errV := vm.Run(budget)

		if normalizeBackendErr(errI) != normalizeBackendErr(errV) {
			t.Errorf("error divergence:\n  interp: %v\n  vm:     %v", errI, errV)
		}
		compareFuncBackends(t, mi, mv, outI.String(), outV.String())
	})
}

// TestFuncVMCheckpointResume checkpoints a run mid-flight under one
// functional backend, round-trips the checkpoint through its gob
// serialization, resumes under the *other* backend and requires the final
// architectural state to be byte-equal to an uninterrupted reference run.
// This is the strongest statement of backend agnosticism: the lowered
// bytecode world and the interpreter world meet exactly at the
// architectural state the checkpoint captures.
func TestFuncVMCheckpointResume(t *testing.T) {
	redPar, _, _ := workloads.Reduction(512)
	prog, _, err := xmtgo.Build("reduction-par.c", redPar, xmtgo.DefaultCompileOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := xmtgo.ConfigFPGA64()

	var refOut bytes.Buffer
	ref, err := xmtgo.NewMachine(prog, cfg, &refOut)
	if err != nil {
		t.Fatal(err)
	}
	// Find a second stop inside a fused word: after the first member of a
	// lui+ori, addiu+addu or sll+addu pair (the VM always fuses those) that
	// the master executes after its first thousand instructions. The master
	// is quiescent there, so RunTo stops at exactly that instruction.
	var steps, insideFused uint64
	var prev isa.Instr
	ref.Trace = func(ctx *funcmodel.Context, in isa.Instr) {
		if insideFused == 0 && ctx.IsMaster && steps > 1000 && fusedPair(prev, in) {
			insideFused = steps
		}
		prev = in
		steps++
	}
	if err := ref.Run(50_000_000); err != nil {
		t.Fatalf("reference: %v", err)
	}
	if !ref.Halted {
		t.Fatal("reference run did not halt")
	}
	if insideFused == 0 {
		t.Fatal("the master never executes a fused pair")
	}

	for _, dir := range []struct {
		name, first, second string
		stopAt              uint64
		exact               bool // RunTo must stop at stopAt itself
	}{
		// Stop roughly mid-run so the checkpoint captures real progress.
		{"vm-to-interp", "vm", "interp", ref.InstrCount / 2, false},
		{"interp-to-vm", "interp", "vm", ref.InstrCount / 2, false},
		{"vm-to-interp-inside-fused", "vm", "interp", insideFused, true},
		{"interp-to-vm-inside-fused", "interp", "vm", insideFused, true},
	} {
		stopAt := dir.stopAt
		t.Run(dir.name, func(t *testing.T) {
			var out1 bytes.Buffer
			m1, err := xmtgo.NewMachine(prog, cfg, &out1)
			if err != nil {
				t.Fatal(err)
			}
			if dir.first == "vm" {
				vm, err := xmtgo.NewFuncVM(m1)
				if err != nil {
					t.Fatal(err)
				}
				if err := vm.RunTo(stopAt); err != nil {
					t.Fatalf("first leg (%s): %v", dir.first, err)
				}
			} else if err := m1.RunTo(stopAt); err != nil {
				t.Fatalf("first leg (%s): %v", dir.first, err)
			}
			if m1.Halted {
				t.Fatalf("halted after %d instructions before the checkpoint", m1.InstrCount)
			}
			if !m1.Quiescent() {
				t.Fatal("RunTo stopped at a non-quiescent point")
			}
			if dir.exact && m1.InstrCount != stopAt {
				t.Fatalf("RunTo(%d) stopped after %d instructions", stopAt, m1.InstrCount)
			}

			var ckpt bytes.Buffer
			if err := checkpoint.Save(&ckpt, checkpoint.Capture(m1, 0)); err != nil {
				t.Fatal(err)
			}
			st, err := checkpoint.Load(&ckpt)
			if err != nil {
				t.Fatal(err)
			}

			var out2 bytes.Buffer
			m2, err := xmtgo.NewMachine(prog, cfg, &out2)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkpoint.Restore(m2, st); err != nil {
				t.Fatal(err)
			}
			if dir.second == "vm" {
				vm, err := xmtgo.NewFuncVM(m2)
				if err != nil {
					t.Fatal(err)
				}
				if err := vm.Run(50_000_000); err != nil {
					t.Fatalf("second leg (%s): %v", dir.second, err)
				}
			} else if err := m2.Run(50_000_000); err != nil {
				t.Fatalf("second leg (%s): %v", dir.second, err)
			}
			if !m2.Halted {
				t.Fatal("resumed run did not halt")
			}
			compareFuncBackends(t, ref, m2, refOut.String(), out1.String()+out2.String())
		})
	}
}

// fusedPair reports whether b, run right after a, is the second member of
// an idiom whose first two members the VM always fuses: lui+ori, or
// sll|addiu + an addu that reads the first's destination (not $zero) as
// exactly one operand.
func fusedPair(a, b isa.Instr) bool {
	if a.Rd == isa.RegZero {
		return false
	}
	switch {
	case a.Op == isa.OpLui && b.Op == isa.OpOri:
		return b.Rs == a.Rd
	case (a.Op == isa.OpSll || a.Op == isa.OpAddiu) && b.Op == isa.OpAddu:
		return (b.Rs == a.Rd) != (b.Rt == a.Rd)
	}
	return false
}
