package cycle_test

import (
	"bytes"
	"runtime"
	"sort"
	"testing"

	"xmtgo/internal/asm"
	"xmtgo/internal/config"
	"xmtgo/internal/sim/cycle"
	"xmtgo/internal/sim/funcmodel"
)

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
        fence
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

func mustProgram(t testing.TB, src string) *asm.Program {
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

func runCycle(t testing.TB, src string, cfg config.Config, maxCycles int64) (*cycle.System, *cycle.Result, string) {
	t.Helper()
	p := mustProgram(t, src)
	var out bytes.Buffer
	sys, err := cycle.New(p, cfg, &out)
	if err != nil {
		t.Fatalf("cycle.New: %v", err)
	}
	res, err := sys.Run(maxCycles)
	if err != nil {
		t.Fatalf("run: %v (out=%q)", err, out.String())
	}
	return sys, res, out.String()
}

func TestArrayCompactionCycleAccurate(t *testing.T) {
	sys, res, out := runCycle(t, compactionAsm, config.FPGA64(), 2_000_000)
	if !res.Halted {
		t.Fatalf("did not halt: %+v", res)
	}
	if out != "4" {
		t.Fatalf("printed %q, want 4", out)
	}
	bAddr, _ := sys.Prog.SymAddr("B")
	var got []int
	for i := 0; i < 4; i++ {
		v, err := sys.Machine.ReadWord(bAddr + uint32(4*i))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, int(v))
	}
	sort.Ints(got)
	want := []int{1, 3, 5, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("B = %v, want permutation of %v", got, want)
		}
	}
	if res.Cycles <= 0 {
		t.Fatalf("no cycles elapsed: %+v", res)
	}
	if sys.Stats.SpawnCount != 1 {
		t.Fatalf("spawns = %d, want 1", sys.Stats.SpawnCount)
	}
	if sys.Stats.VirtualThreads != 8 {
		t.Fatalf("virtual threads = %d, want 8", sys.Stats.VirtualThreads)
	}
}

// TestCycleMatchesFunctional cross-checks the two simulation modes on the
// same program: identical architectural outcome (paper Fig. 3: same
// functional model underneath).
func TestCycleMatchesFunctional(t *testing.T) {
	src := `
        .data
A:      .space 256
        .text
main:
        la    $t0, A
        bcast $t0
        li    $a0, 0
        li    $a1, 63
        fence
        spawn $a0, $a1
L:      addiu $tid, $zero, 1
        ps    $tid, g63
        chkid $tid
        mul   $t2, $tid, $tid
        sll   $t3, $tid, 2
        addu  $t3, $t0, $t3
        sw.nb $t2, 0($t3)       # A[$] = $*$
        j     L
        join
        li    $t4, 0
        li    $t5, 0
        la    $t0, A
sum:    lw    $t6, 0($t0)
        addu  $t4, $t4, $t6
        addiu $t0, $t0, 4
        addiu $t5, $t5, 1
        slti  $at, $t5, 64
        bne   $at, $zero, sum
        move  $v0, $t4
        sys   1
        sys   0
`
	p := mustProgram(t, src)
	var fOut bytes.Buffer
	fm, err := funcmodel.New(p, config.FPGA64().MemBytes, &fOut)
	if err != nil {
		t.Fatal(err)
	}
	if err := fm.Run(10_000_000); err != nil {
		t.Fatal(err)
	}

	_, res, cOut := runCycle(t, src, config.FPGA64(), 10_000_000)
	if !res.Halted {
		t.Fatalf("cycle mode did not halt")
	}
	if fOut.String() != cOut {
		t.Fatalf("functional printed %q, cycle printed %q", fOut.String(), cOut)
	}
	want := 0
	for i := 0; i < 64; i++ {
		want += i * i
	}
	if cOut != itoa(want) {
		t.Fatalf("printed %q, want %d", cOut, want)
	}
}

func itoa(v int) string {
	var b bytes.Buffer
	b.WriteString("")
	if v == 0 {
		return "0"
	}
	var digits []byte
	for v > 0 {
		digits = append([]byte{byte('0' + v%10)}, digits...)
		v /= 10
	}
	return string(digits)
}

func TestSerialOnlyProgram(t *testing.T) {
	src := `
        .text
main:
        li   $t0, 10
        li   $t1, 0
L:      addu $t1, $t1, $t0
        addiu $t0, $t0, -1
        bgtz $t0, L
        move $v0, $t1
        sys  1
        sys  0
`
	_, res, out := runCycle(t, src, config.FPGA64(), 1_000_000)
	if out != "55" {
		t.Fatalf("printed %q, want 55", out)
	}
	if !res.Halted {
		t.Fatal("not halted")
	}
}

func TestChip1024Compaction(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-TCU config in -short mode")
	}
	_, res, out := runCycle(t, compactionAsm, config.Chip1024(), 5_000_000)
	if out != "4" {
		t.Fatalf("printed %q, want 4", out)
	}
	if !res.Halted {
		t.Fatal("not halted")
	}
}

// host_workers=0 resolves to the documented default, which is one worker: no
// pool, no goroutine started by a run. An explicit count is honoured up to
// the cluster count.
func TestAutoWorkersResolution(t *testing.T) {
	cfg := config.FPGA64() // 8 clusters
	for _, tc := range []struct{ set, want int }{
		{0, config.DefaultHostWorkers},
		{1, 1},
		{4, 4},
		{64, cfg.Clusters},
	} {
		wcfg := cfg
		wcfg.HostWorkers = tc.set
		before := runtime.NumGoroutine()
		sys, res, out := runCycle(t, compactionAsm, wcfg, 100_000)
		if got := sys.HostWorkers(); got != tc.want {
			t.Errorf("host_workers=%d resolved to %d workers, want %d", tc.set, got, tc.want)
		}
		if !res.Halted || out != "4" {
			t.Errorf("host_workers=%d: halted=%v output=%q", tc.set, res.Halted, out)
		}
		// Run closes the pool and Close waits for its goroutines, so no
		// worker count leaves one behind; one worker never starts any.
		if after := runtime.NumGoroutine(); after != before {
			t.Errorf("host_workers=%d: %d goroutines after Run, %d before", tc.set, after, before)
		}
	}
}
