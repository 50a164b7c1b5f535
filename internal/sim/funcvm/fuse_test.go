package funcvm_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"xmtgo/internal/asm"
	"xmtgo/internal/codegen"
	"xmtgo/internal/sim/funcmodel"
	"xmtgo/internal/sim/funcvm"
	"xmtgo/internal/workloads"
)

// fusedPrefix gives every row of TestFusedWords an array to address. Pad
// puts A at an address whose low half is not zero, so the ori of "la"
// matters.
const fusedPrefix = `
        .data
Pad:    .word 0, 0, 0
A:      .word 10, 20, 30, 40, 50, 60, 70, 80
        .text
main:
`

// fusedLoopAsm runs every idiom fuse knows, several times over: the loop
// test (slti+bgtz, slt+bgtz), global-array loads and stores (lui ori sll
// addu + lw/sw/sw.nb/pref), an indexed load (sll+addu+lw), a bare constant
// (lui+ori) and the back edge (addiu+addu+j).
const fusedLoopAsm = fusedPrefix + `
        li    $s1, 5
        li    $t1, 0
L:      slti  $t4, $t1, 6
        bgtz  $t4, B
        j     E
B:      la    $t0, A
        sll   $t2, $t1, 2
        addu  $t2, $t0, $t2
        lw    $t3, 0($t2)
        la    $t0, A
        sll   $t2, $t1, 2
        addu  $t2, $t2, $t0
        sw    $t1, 4($t2)
        la    $t0, A
        sll   $t2, $t1, 2
        addu  $t2, $t0, $t2
        sw.nb $t3, 0($t2)
        la    $t0, A
        sll   $t5, $t1, 2
        addu  $t6, $t0, $t5
        pref  $zero, 0($t6)
        sll   $t5, $t1, 2
        addu  $t6, $t0, $t5
        lw    $t7, 0($t6)
        lui   $t8, 0x1234
        ori   $t9, $t8, 0x5678
        slt   $t4, $t1, $s1
        bgtz  $t4, C
        addu  $v0, $t7, $t3
C:      addiu $t0, $t1, 1
        addu  $t1, $t0, $zero
        j     L
E:      sys   0
`

// TestFusedWords is the gate of the superinstructions: each idiom fuse
// matches, next to variants that miss its register dependency, faults in
// a fused word's last member, and jumps into a fused word's middle, each
// checked against the interpreter with runBoth's strict comparison. spans
// lists the words that start a superinstruction, in program order, by
// span: the rows pin which variants fuse as well as what they compute.
func TestFusedWords(t *testing.T) {
	cases := []struct {
		name  string
		body  string
		spans []int
		err   string // substring of the shared error, "" for a clean halt
	}{
		// lui+ori.
		{"lui-ori", "la $t0, A\n lw $t3, 4($t0)", []int{2}, ""},
		{"lui-ori/other-rd", "lui $t0, 1\n ori $t1, $t0, 0x234", []int{2}, ""},
		{"lui-ori/ori-writes-zero", "lui $t0, 1\n ori $zero, $t0, 5", []int{2}, ""},
		{"lui-ori/lui-writes-zero", "lui $zero, 1\n ori $t0, $zero, 5", nil, ""},
		{"lui-ori/ori-reads-other", "li $t2, 9\n lui $t0, 1\n ori $t1, $t2, 5", nil, ""},

		// sll+addu and sll+addu+lw.
		{"sll-addu/dep-in-rs", "li $t1, 3\n sll $t2, $t1, 2\n addu $t3, $t2, $t1", []int{2}, ""},
		{"sll-addu/dep-in-rt", "li $t1, 3\n sll $t2, $t1, 2\n addu $t3, $t1, $t2", []int{2}, ""},
		{"sll-addu/same-rd", "li $t1, 3\n sll $t2, $t1, 2\n addu $t2, $t2, $t1", []int{2}, ""},
		{"sll-addu/other-zero", "li $t1, 3\n sll $t2, $t1, 2\n addu $t3, $t2, $zero", []int{2}, ""},
		{"sll-addu/addu-r-r-r", "li $t1, 3\n sll $t2, $t1, 2\n addu $t3, $t2, $t2", nil, ""},
		{"sll-addu/sll-writes-zero", "li $t1, 3\n sll $zero, $t1, 2\n addu $t3, $zero, $t1", nil, ""},
		{"sll-addu/no-dep", "li $t1, 3\n sll $t2, $t1, 2\n addu $t3, $t1, $t4", nil, ""},
		{"sll-addu-lw", "la $t0, A\n li $t1, 2\n sll $t2, $t1, 2\n addu $t3, $t0, $t2\n lw $t4, 0($t3)", []int{2, 3}, ""},
		{"sll-addu-lw/compiler-form", "la $t0, A\n li $t1, 2\n sll $t2, $t1, 2\n addu $t2, $t0, $t2\n lw $t2, 0($t2)", []int{2, 3}, ""},
		{"sll-addu-lw/base-not-addu", "la $t0, A\n li $t1, 2\n sll $t2, $t1, 2\n addu $t2, $t0, $t2\n lw $t3, 0($t0)", []int{2, 2}, ""},
		{"sll-addu-lw/addu-writes-zero", "la $t0, A\n li $t1, 2\n sll $t2, $t1, 2\n addu $zero, $t0, $t2\n lw $t3, 0($zero)", []int{2, 2}, ""},
		{"sll-addu-lw/unaligned", "la $t0, A\n li $t1, 1\n sll $t2, $t1, 1\n addu $t3, $t0, $t2\n lw $t4, 0($t3)", []int{2, 3}, "unaligned load"},
		{"sll-addu-lw/out-of-range", "la $t0, A\n li $t1, 0x100000\n sll $t2, $t1, 2\n addu $t3, $t0, $t2\n lw $t4, 0($t3)", []int{2, 3}, "load at"},

		// lui ori sll addu + lw, sw, sw.nb, pref.
		{"global-lw", "li $t1, 2\n la $t0, A\n sll $t2, $t1, 2\n addu $t3, $t0, $t2\n lw $t4, 4($t3)", []int{5, 3}, ""},
		{"global-lw/compiler-form", "li $t1, 2\n la $t0, A\n sll $t2, $t1, 2\n addu $t2, $t0, $t2\n lw $t2, 0($t2)", []int{5, 3}, ""},
		{"global-lw/other-not-ori", "la $t5, A\n li $t1, 1\n la $t0, A\n sll $t2, $t1, 2\n addu $t3, $t5, $t2\n lw $t4, 0($t3)", []int{2, 5, 3}, ""},
		{"global-lw/ori-to-other-rd", "li $t1, 2\n lui $t0, 1\n ori $t5, $t0, 0x10\n sll $t2, $t1, 2\n addu $t3, $t5, $t2\n lw $t4, 0($t3)", []int{5, 3}, ""},
		{"global-lw/sll-reads-ori", "la $t0, A\n sll $t2, $t0, 0\n addu $t3, $t2, $zero\n lw $t4, 0($t3)", []int{5, 3}, ""},
		{"global-sw", "li $t1, 2\n la $t0, A\n sll $t2, $t1, 2\n addu $t3, $t0, $t2\n sw $t1, 0($t3)", []int{5, 2}, ""},
		{"global-sw-nb", "li $t1, 2\n la $t0, A\n sll $t2, $t1, 2\n addu $t3, $t0, $t2\n sw.nb $t2, 0($t3)", []int{5, 2}, ""},
		{"global-pref", "li $t1, 2\n la $t0, A\n sll $t2, $t1, 2\n addu $t3, $t0, $t2\n pref $zero, 0($t3)", []int{5, 2}, ""},
		{"global-lw/unaligned", "li $t1, 1\n la $t0, A\n sll $t2, $t1, 1\n addu $t3, $t0, $t2\n lw $t4, 0($t3)", []int{5, 3}, "unaligned load"},
		{"global-lw/out-of-range", "li $t1, 0x100000\n la $t0, A\n sll $t2, $t1, 2\n addu $t3, $t0, $t2\n lw $t4, 0($t3)", []int{5, 3}, "load at"},
		{"global-sw/unaligned", "li $t1, 1\n la $t0, A\n sll $t2, $t1, 1\n addu $t3, $t0, $t2\n sw $t1, 0($t3)", []int{5, 2}, "unaligned store"},
		{"global-sw/out-of-range", "li $t1, 0x100000\n la $t0, A\n sll $t2, $t1, 2\n addu $t3, $t0, $t2\n sw $t1, 0($t3)", []int{5, 2}, "store at"},
		{"global-pref/out-of-range", "li $t1, 0x100000\n la $t0, A\n sll $t2, $t1, 2\n addu $t3, $t0, $t2\n pref $zero, 0($t3)", []int{5, 2}, "load at"},

		// addiu+addu(+j) and slt|slti+bgtz.
		{"addiu-addu", "li $t1, 4\n addiu $t0, $t1, 1\n addu $t1, $t0, $zero", []int{2}, ""},
		{"addiu-addu/dep-in-rt", "li $t1, 4\n addiu $t0, $t1, 1\n addu $t1, $t5, $t0", []int{2}, ""},
		{"addiu-addu/addiu-writes-zero", "li $t1, 4\n addiu $zero, $t1, 1\n addu $t1, $zero, $t2", nil, ""},
		{"addiu-addu/addu-r-r-r", "li $t1, 4\n addiu $t0, $t1, 1\n addu $t1, $t0, $t0", nil, ""},
		{"addiu-addu-j/bad-target", "li $t1, 4\n addiu $t0, $t1, 1\n addu $t1, $t0, $zero\n j End\n sys 0\nEnd:", []int{2}, "outside program"},
		{"slt-bgtz/taken", "li $t1, 4\n li $t3, 7\n slt $t2, $t1, $t3\n bgtz $t2, S\n li $v0, 1\nS: li $v1, 2", []int{2}, ""},
		{"slt-bgtz/not-taken", "li $t1, 9\n li $t3, 7\n li $t2, 5\n slt $t2, $t1, $t3\n bgtz $t2, S\n li $v0, 1\nS: li $v1, 2", []int{2}, ""},
		{"slti-bgtz/taken", "li $t1, 4\n slti $t2, $t1, 7\n bgtz $t2, S\n li $v0, 1\nS: li $v1, 2", []int{2}, ""},
		{"slti-bgtz/not-taken", "li $t1, 9\n li $t2, 5\n slti $t2, $t1, 7\n bgtz $t2, S\n li $v0, 1\nS: li $v1, 2", []int{2}, ""},
		{"slti-bgtz/bad-target", "li $t1, 4\n slti $t2, $t1, 5\n bgtz $t2, End\n sys 0\nEnd:", nil, "outside program"},
		{"slt-bgtz/reads-other", "li $t1, 4\n li $t3, 7\n slt $t2, $t1, $t3\n bgtz $t1, S\nS: sys 0", nil, ""},
		{"slt-bgtz/writes-zero", "li $t1, 4\n li $t3, 7\n slt $zero, $t1, $t3\n bgtz $zero, S\n li $v0, 1\nS: sys 0", nil, ""},
		{"loop", strings.TrimPrefix(fusedLoopAsm, fusedPrefix), []int{2, 5, 3, 5, 2, 5, 2, 5, 2, 3, 2, 2, 3}, ""},

		// Into the middle of a fused word.
		{"j-into-middle", "la $t0, A\n li $t1, 2\n j M\n sll $t2, $t1, 2\nM: addu $t2, $t0, $t2\n lw $t3, 0($t2)", []int{2, 3}, ""},
		{"jr-into-middle", "la $t0, A\n la $t5, M\n li $t1, 1\n jr $t5\n lui $t0, 7\nM: ori $t0, $t0, 0\n sll $t2, $t1, 2\n addu $t2, $t0, $t2\n lw $t3, 0($t2)", []int{2, 2, 5, 3}, ""},
		{"jr-into-last", "la $t5, M\n jr $t5\n li $t1, 1\n la $t0, A\n sll $t2, $t1, 2\n addu $t2, $t0, $t2\nM: lw $t3, 0($t2)", []int{2, 5, 3}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := fusedPrefix + tc.body + "\n"
			if !strings.HasSuffix(tc.body, ":") { // a last label is a target outside the program
				src += " sys 0\n"
			}
			var spans []int
			for _, k := range funcvm.Spans(mustProgram(t, src)) {
				if k > 1 {
					spans = append(spans, k)
				}
			}
			if !reflect.DeepEqual(spans, tc.spans) {
				t.Errorf("fused spans %v, want %v", spans, tc.spans)
			}
			mi, _, err := runBoth(t, src, 10_000)
			if tc.err == "" && (err != nil || !mi.Halted) {
				t.Fatalf("did not halt after %d instructions: %v", mi.InstrCount, err)
			}
			if tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)) {
				t.Fatalf("error %v, want one containing %q", err, tc.err)
			}
		})
	}
}

// TestFusedCoverage pins how much of the compiler's output the
// superinstructions cover: the words the untraced dispatch loop executes
// per instruction on the Table I serial- and parallel-memory kernels. A
// codegen change that stops emitting the idioms raises the ratio and
// fails here, instead of quietly slowing the functional mode down. The
// bound is the ratio measured when fusion landed plus a margin of 0.02.
func TestFusedCoverage(t *testing.T) {
	for _, tc := range []struct {
		group    workloads.TableIGroup
		threads  int
		work     int
		measured float64
	}{
		{workloads.SerialMemory, 1024, 2000, 0.6957},
		{workloads.ParallelMemory, 1024, 8, 0.6905},
	} {
		t.Run(tc.group.Name(), func(t *testing.T) {
			res, err := codegen.Compile("tableI.c", workloads.TableI(tc.group, tc.threads, tc.work), codegen.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			p, err := asm.Assemble(res.Unit)
			if err != nil {
				t.Fatal(err)
			}
			m, err := funcmodel.New(p, 16<<20, &bytes.Buffer{})
			if err != nil {
				t.Fatal(err)
			}
			defer m.ReleaseMemory()
			words, err := funcvm.RunCounted(m, 0)
			if err != nil {
				t.Fatal(err)
			}
			ratio := float64(words) / float64(m.InstrCount)
			t.Logf("%d words for %d instructions: %.4f", words, m.InstrCount, ratio)
			if ratio > tc.measured+0.02 {
				t.Fatalf("ratio %.4f, measured %.4f when fusion landed", ratio, tc.measured)
			}
		})
	}
}
