// Differential conformance: the functional interpreter, the funcvm
// bytecode backend and the cycle-accurate model are three implementations
// of the same architecture, so every workload program must leave all of
// them in the same architectural state — final shared memory, global
// registers, master context, printf output and halt state. Divergence
// means one of the models (or the compiler) broke; this corpus is the
// tripwire. scripts/check.sh runs it.
//
// The matrix is three-way: interp↔vm is compared fully strictly (both
// functional backends serialize spawn sections in the same order, so even
// interleaving-dependent memory must match byte-for-byte, and so must the
// instruction count and every global register including G[GRegSpawn]);
// interp↔cycle keeps two deliberate exclusions:
//   - G[GRegSpawn] (the virtual-thread grab counter): the functional mode
//     serializes each spawn on one virtual TCU while the cycle model runs
//     Cfg.TCUs() of them, and every TCU performs one final failing grab, so
//     the counter's final value legitimately differs between the models.
//   - For programs whose result placement depends on the thread
//     interleaving (marked skipMem in the corpus, matrix_test.go) only the
//     printed invariants and registers are compared, not raw memory.
//     Programs that deliberately exhibit relaxed-memory outcomes (the
//     litmus tests of paper Figs. 6-7) live in examples/xmtc and are not
//     run here at all.
package xmtgo_test

import (
	"bytes"
	"testing"

	"xmtgo"
	"xmtgo/internal/isa"
)

func TestFuncCycleConformance(t *testing.T) {
	for _, tc := range conformanceCorpus() {
		t.Run(tc.name, func(t *testing.T) {
			runConformanceCase(t, tc, preset(""))
		})
	}
}

// TestDegradedConformance re-runs the whole corpus with two permanent TCU
// failures injected early in each run (docs/ROBUSTNESS.md): graceful
// degradation must preserve full architectural conformance with the
// functional model — same memory, registers and output, only more cycles.
func TestDegradedConformance(t *testing.T) {
	cfg := preset("")
	cfg.FaultPlan = "tcufail:2@40-200"
	cfg.FaultSeed = 13
	for _, tc := range conformanceCorpus() {
		t.Run(tc.name, func(t *testing.T) {
			sys := runConformanceCase(t, tc, cfg)
			if got := sys.Stats.TCUsDecommissioned; got != 2 {
				t.Errorf("TCUsDecommissioned = %d, want 2 (fault window missed the run?)", got)
			}
		})
	}
}

// runConformanceCase runs one corpus program under all three models with
// cfg and fails the test on any architectural divergence. It returns the
// cycle simulator for extra assertions.
func runConformanceCase(t *testing.T, tc corpusProg, cfg xmtgo.Config) *xmtgo.Simulator {
	t.Helper()
	_, prog := program(t, tc.name)

	var funcOut bytes.Buffer
	fm, err := xmtgo.NewMachine(prog, cfg, &funcOut)
	if err != nil {
		t.Fatal(err)
	}
	if err := fm.Run(50_000_000); err != nil {
		t.Fatalf("functional interp: %v", err)
	}
	if !fm.Halted {
		t.Fatalf("functional interp run did not halt (%d instructions)", fm.InstrCount)
	}

	var vmOut bytes.Buffer
	vmm, err := xmtgo.NewMachine(prog, cfg, &vmOut)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := xmtgo.NewFuncVM(vmm)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(50_000_000); err != nil {
		t.Fatalf("functional vm: %v", err)
	}
	if !vmm.Halted {
		t.Fatalf("functional vm run did not halt (%d instructions)", vmm.InstrCount)
	}
	compareFuncBackends(t, fm, vmm, funcOut.String(), vmOut.String())

	var cycOut bytes.Buffer
	sys, err := xmtgo.NewSimulator(prog, cfg, &cycOut)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(10_000_000)
	if err != nil {
		t.Fatalf("cycle: %v", err)
	}
	if !res.Halted {
		t.Fatalf("cycle run did not halt (cycles=%d timedOut=%v)", res.Cycles, res.TimedOut)
	}

	if got, want := cycOut.String(), funcOut.String(); got != want {
		t.Errorf("printf output diverged:\ncycle: %q\nfunc:  %q", got, want)
	}
	for gr := 0; gr < isa.NumGRegs; gr++ {
		if isa.GReg(gr) == isa.GRegSpawn {
			continue // grab counts differ by design; see file comment
		}
		if sys.Machine.G[gr] != fm.G[gr] {
			t.Errorf("global register g%d: cycle=%d func=%d", gr, sys.Machine.G[gr], fm.G[gr])
		}
	}
	mc := sys.MasterContext()
	if mc.PC != fm.Master.PC {
		t.Errorf("master PC: cycle=%d func=%d", mc.PC, fm.Master.PC)
	}
	if mc.Reg != fm.Master.Reg {
		for r := 0; r < isa.NumRegs; r++ {
			if mc.Reg[r] != fm.Master.Reg[r] {
				t.Errorf("master $%d: cycle=%d func=%d", r, mc.Reg[r], fm.Master.Reg[r])
			}
		}
	}
	if !tc.skipMem && !bytes.Equal(sys.Machine.Mem, fm.Mem) {
		for i := range fm.Mem {
			if sys.Machine.Mem[i] != fm.Mem[i] {
				t.Errorf("memory diverged first at 0x%08x: cycle=%#02x func=%#02x",
					i, sys.Machine.Mem[i], fm.Mem[i])
				break
			}
		}
	}
	return sys
}

// compareFuncBackends checks the interpreter and the funcvm backend for
// full architectural equality: both serialize spawn sections virtual
// thread by virtual thread in the same order, so nothing is excluded —
// memory, every global register (including G[GRegSpawn]), master context,
// instruction count, halt state and output must all be identical.
func compareFuncBackends(t *testing.T, interp, vm *xmtgo.Machine, interpOut, vmOut string) {
	t.Helper()
	if vmOut != interpOut {
		t.Errorf("printf output diverged:\nvm:     %q\ninterp: %q", vmOut, interpOut)
	}
	if vm.Halted != interp.Halted {
		t.Errorf("halt state: vm=%v interp=%v", vm.Halted, interp.Halted)
	}
	if vm.InstrCount != interp.InstrCount {
		t.Errorf("instruction count: vm=%d interp=%d", vm.InstrCount, interp.InstrCount)
	}
	for gr := 0; gr < isa.NumGRegs; gr++ {
		if vm.G[gr] != interp.G[gr] {
			t.Errorf("global register g%d: vm=%d interp=%d", gr, vm.G[gr], interp.G[gr])
		}
	}
	if vm.Master.PC != interp.Master.PC {
		t.Errorf("master PC: vm=%d interp=%d", vm.Master.PC, interp.Master.PC)
	}
	if vm.Master.Reg != interp.Master.Reg {
		for r := 0; r < isa.NumRegs; r++ {
			if vm.Master.Reg[r] != interp.Master.Reg[r] {
				t.Errorf("master $%d: vm=%d interp=%d", r, vm.Master.Reg[r], interp.Master.Reg[r])
			}
		}
	}
	if !bytes.Equal(vm.Mem, interp.Mem) {
		for i := range interp.Mem {
			if vm.Mem[i] != interp.Mem[i] {
				t.Errorf("memory diverged first at 0x%08x: vm=%#02x interp=%#02x",
					i, vm.Mem[i], interp.Mem[i])
				break
			}
		}
	}
}
