package metrics_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"xmtgo/internal/asm"
	"xmtgo/internal/codegen"
	"xmtgo/internal/config"
	"xmtgo/internal/sim/cycle"
	"xmtgo/internal/sim/metrics"
	"xmtgo/internal/sim/power"
	"xmtgo/internal/sim/stats"
	"xmtgo/internal/workloads"
)

// loopAsm is a serial load-modify-store loop long enough for several
// sampling windows.
const loopAsm = `
        .data
A:      .space 64
        .text
        .global main
main:
        li    $t0, 300
        la    $t1, A
Lloop:  lw    $t2, 0($t1)
        addiu $t2, $t2, 1
        sw    $t2, 0($t1)
        addiu $t0, $t0, -1
        bne   $t0, $zero, Lloop
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

// faultyProgram is the Table I parallel-memory kernel on fpga64 under a
// plan that fails TCUs mid-spawn, so the run injects faults and
// re-dispatches orphaned virtual threads.
func faultyProgram(t *testing.T) (*asm.Program, config.Config) {
	t.Helper()
	cfg := config.FPGA64()
	cfg.FaultPlan, cfg.FaultSeed = "tcufail:4@50-400;memflip:2@50-400", 7
	res, err := codegen.Compile("parmem.c", workloads.TableI(workloads.ParallelMemory, cfg.TCUs(), 20), codegen.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(res.Unit)
	if err != nil {
		t.Fatal(err)
	}
	return prog, cfg
}

func runSampled(t *testing.T, interval int64, workers int, thermal bool) (*metrics.Sampler, *cycle.System, *cycle.Result) {
	t.Helper()
	cfg := config.FPGA64()
	cfg.HostWorkers = workers
	return runProgram(t, mustProgram(t, loopAsm), cfg, interval, thermal)
}

// runProgram runs prog to its halt with an interval sampler attached, and
// the thermal manager too when thermal is set.
func runProgram(t *testing.T, prog *asm.Program, cfg config.Config, interval int64, thermal bool) (*metrics.Sampler, *cycle.System, *cycle.Result) {
	t.Helper()
	var out bytes.Buffer
	sys, err := cycle.New(prog, cfg, &out)
	if err != nil {
		t.Fatal(err)
	}
	var tm *power.ThermalManager
	if thermal {
		tm, err = power.NewThermalManager(&cfg, interval, 85)
		if err != nil {
			t.Fatal(err)
		}
		sys.AddActivityPlugin(tm)
	}
	smp := metrics.Attach(sys, interval)
	if smp == nil {
		t.Fatal("Attach returned nil for a positive interval")
	}
	if thermal {
		smp.AttachThermal(tm)
	}
	res, err := sys.Run(2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Fatalf("program did not halt (cycles=%d)", res.Cycles)
	}
	smp.Finalize(res.Cycles, int64(res.Ticks), sys.Stats, sys.AliveTCUs())
	return smp, sys, res
}

// TestSamplerWindows holds the samples to the interval grid and every
// additive sample field to the end-of-run counter snapshot, on a serial loop
// and on a parallel run that injects faults and re-dispatches orphaned
// virtual threads.
func TestSamplerWindows(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		smp, sys, res := runSampled(t, 200, 1, false)
		checkWindows(t, smp.Samples(), sys, res, 200)
	})
	t.Run("faulty", func(t *testing.T) {
		prog, cfg := faultyProgram(t)
		smp, sys, res := runProgram(t, prog, cfg, 300, false)
		snap := checkWindows(t, smp.Samples(), sys, res, 300)
		if snap.Faults.Injected == 0 || snap.Faults.Redispatches == 0 {
			t.Fatalf("fault plan injected %d faults and %d re-dispatches; want both nonzero",
				snap.Faults.Injected, snap.Faults.Redispatches)
		}
	})
}

// checkWindows checks that samples tile the run on the interval grid and
// that every additive field sums back to the end-of-run counter snapshot,
// which it returns.
func checkWindows(t *testing.T, samples []metrics.Sample, sys *cycle.System, res *cycle.Result, interval int64) *stats.Snapshot {
	t.Helper()
	if len(samples) < 3 {
		t.Fatalf("want >= 3 samples for a %d-cycle run at interval %d, got %d", res.Cycles, interval, len(samples))
	}

	// Boundaries land on the interval grid; the final sample may be partial.
	prevCycle := int64(0)
	for i, s := range samples {
		if s.WindowCycles != s.Cycle-prevCycle {
			t.Errorf("sample %d: window %d != cycle delta %d", i, s.WindowCycles, s.Cycle-prevCycle)
		}
		if i < len(samples)-1 && s.Cycle%interval != 0 {
			t.Errorf("sample %d: boundary cycle %d not on the interval grid", i, s.Cycle)
		}
		if s.Instrs != s.MasterInstrs+s.TCUInstrs {
			t.Errorf("sample %d: instrs %d != master %d + tcu %d", i, s.Instrs, s.MasterInstrs, s.TCUInstrs)
		}
		prevCycle = s.Cycle
	}
	last := samples[len(samples)-1]
	if last.Cycle != res.Cycles {
		t.Errorf("final sample at cycle %d, run ended at %d", last.Cycle, res.Cycles)
	}

	// Windowed deltas must sum back to the cumulative counters.
	snap := sys.Stats.Snapshot(res.Cycles, int64(res.Ticks))
	if last.DecommissionedTCUs != snap.Faults.Decommissioned {
		t.Errorf("final sample has %d decommissioned TCUs, snapshot %d", last.DecommissionedTCUs, snap.Faults.Decommissioned)
	}
	for _, f := range []struct {
		name  string
		field func(*metrics.Sample) uint64
		total uint64
	}{
		{"instrs", func(s *metrics.Sample) uint64 { return s.Instrs }, snap.Instructions.Total},
		{"master_instrs", func(s *metrics.Sample) uint64 { return s.MasterInstrs }, snap.Instructions.Master},
		{"tcu_instrs", func(s *metrics.Sample) uint64 { return s.TCUInstrs }, snap.Instructions.TCU},
		{"stall_mem", func(s *metrics.Sample) uint64 { return s.StallMem }, snap.Stalls.Mem},
		{"stall_fpu_mdu", func(s *metrics.Sample) uint64 { return s.StallFPUMDU }, snap.Stalls.FPUMDU},
		{"stall_ps", func(s *metrics.Sample) uint64 { return s.StallPS }, snap.Stalls.PS},
		{"stall_icn_send", func(s *metrics.Sample) uint64 { return s.StallICNSend }, snap.Stalls.ICNSend},
		{"cache_hits", func(s *metrics.Sample) uint64 { return s.CacheHits }, snap.Memory.CacheHits},
		{"cache_misses", func(s *metrics.Sample) uint64 { return s.CacheMisses }, snap.Memory.CacheMisses},
		{"cache_queue_full", func(s *metrics.Sample) uint64 { return s.CacheQueueFull }, snap.Memory.QueueFull},
		{"icn_traversals", func(s *metrics.Sample) uint64 { return s.ICNTraversals }, snap.Memory.ICNTraversals},
		{"icn_hops", func(s *metrics.Sample) uint64 { return s.ICNHops }, snap.Memory.ICNHops},
		{"dram_accesses", func(s *metrics.Sample) uint64 { return s.DRAMAccesses }, snap.Memory.DRAMTotal},
		{"ps_ops", func(s *metrics.Sample) uint64 { return s.PsOps }, snap.PrefixSum.Ops},
		{"spawns", func(s *metrics.Sample) uint64 { return s.Spawns }, snap.SpawnJoin.Spawns},
		{"virtual_threads", func(s *metrics.Sample) uint64 { return s.VirtualThreads }, snap.SpawnJoin.VirtualThreads},
		{"faults_injected", func(s *metrics.Sample) uint64 { return s.FaultsInjected }, snap.Faults.Injected},
		{"redispatches", func(s *metrics.Sample) uint64 { return s.Redispatches }, snap.Faults.Redispatches},
	} {
		var sum uint64
		for i := range samples {
			sum += f.field(&samples[i])
		}
		if sum != f.total {
			t.Errorf("%s: samples sum to %d, snapshot has %d", f.name, sum, f.total)
		}
	}
	return snap
}

func TestSamplerFinalizeOnBoundaryAddsNothing(t *testing.T) {
	smp, sys, res := runSampled(t, 200, 1, false)
	n := len(smp.Samples())
	// A second Finalize at the same cycle must not append a duplicate.
	smp.Finalize(res.Cycles, int64(res.Ticks), sys.Stats, sys.AliveTCUs())
	if got := len(smp.Samples()); got != n {
		t.Fatalf("repeated Finalize grew the series: %d -> %d", n, got)
	}
}

func TestSamplerJSONLAndCSVDeterminism(t *testing.T) {
	render := func(workers int) (string, string) {
		smp, _, _ := runSampled(t, 200, workers, false)
		var jl, cs bytes.Buffer
		if err := metrics.WriteJSONL(&jl, smp.Header(), smp.Samples()); err != nil {
			t.Fatal(err)
		}
		if err := metrics.WriteCSV(&cs, smp.Samples()); err != nil {
			t.Fatal(err)
		}
		return jl.String(), cs.String()
	}
	refJL, refCSV := render(1)
	for _, w := range []int{2, 4} {
		jl, cs := render(w)
		if jl != refJL {
			t.Errorf("workers=%d: JSONL diverged", w)
		}
		if cs != refCSV {
			t.Errorf("workers=%d: CSV diverged", w)
		}
	}

	// The JSONL stream starts with the schema header.
	line, _, _ := strings.Cut(refJL, "\n")
	var hdr metrics.Header
	if err := json.Unmarshal([]byte(line), &hdr); err != nil {
		t.Fatalf("header line: %v", err)
	}
	if hdr.Schema != metrics.SampleSchema || hdr.Interval != 200 {
		t.Fatalf("bad header %+v", hdr)
	}
	// The CSV has the fixed column count on every row.
	rows := strings.Split(strings.TrimSpace(refCSV), "\n")
	want := strings.Count(rows[0], ",") + 1
	for i, r := range rows {
		if got := strings.Count(r, ",") + 1; got != want {
			t.Fatalf("csv row %d has %d columns, want %d", i, got, want)
		}
	}
}

func TestSamplerThermal(t *testing.T) {
	smp, _, _ := runSampled(t, 200, 1, true)
	samples := smp.Samples()
	var withPower int
	for _, s := range samples {
		if s.Power == nil {
			continue
		}
		withPower++
		if s.Power.Watts <= 0 || s.Power.EnergyJ <= 0 {
			t.Errorf("cycle %d: non-positive power %v", s.Cycle, *s.Power)
		}
		if s.Power.PeakTempC < s.Power.MeanTempC {
			t.Errorf("cycle %d: peak %.2f < mean %.2f", s.Cycle, s.Power.PeakTempC, s.Power.MeanTempC)
		}
	}
	if withPower != len(samples) {
		t.Fatalf("thermal attached but only %d/%d samples carry power", withPower, len(samples))
	}

	// Without the plug-in the power block is absent from the JSON.
	plain, _, _ := runSampled(t, 200, 1, false)
	var b bytes.Buffer
	if err := metrics.WriteJSONL(&b, plain.Header(), plain.Samples()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), `"power"`) {
		t.Fatal("power block present without a thermal plug-in")
	}
}

func TestAttachDisabled(t *testing.T) {
	cfg := config.FPGA64()
	sys, err := cycle.New(mustProgram(t, loopAsm), cfg, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if smp := metrics.Attach(sys, 0); smp != nil {
		t.Fatal("Attach(0) should disable sampling")
	}
}

// TestSamplerStatusAfterResume: the /status block of a run resumed from a
// checkpoint counts cycles and instructions from program start, as the
// run's Result does, while its samples stay per-window deltas of the
// resumed segment alone.
func TestSamplerStatusAfterResume(t *testing.T) {
	prog := mustProgram(t, strings.Replace(loopAsm, "        sys   0\n", "        sys   5\n        li    $t0, 300\nL2:     addiu $t0, $t0, -1\n        bne   $t0, $zero, L2\n        sys   0\n", 1))
	cfg := config.FPGA64()
	first, err := cycle.New(prog, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := first.Run(0)
	if err != nil || !res1.Checkpoint {
		t.Fatalf("first leg: %+v, %v; want a checkpoint stop", res1, err)
	}
	sys, err := cycle.New(prog, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RestoreState(first.Capture()); err != nil {
		t.Fatal(err)
	}
	srv := metrics.NewServer()
	defer srv.Close()
	smp := metrics.Attach(sys, 100)
	smp.SetServer(srv)
	res, err := sys.Run(0)
	if err != nil || !res.Halted {
		t.Fatalf("resumed leg: %+v, %v", res, err)
	}
	smp.Finalize(res.Cycles, int64(res.Ticks), sys.Stats, sys.AliveTCUs())
	st := srv.Latest().Status
	if st.Instrs != res.Instrs || st.Cycle != res.Cycles || res.Instrs != res1.Instrs+sys.Stats.TotalInstrs() {
		t.Fatalf("status instrs %d cycle %d; result %d / %d; want the first leg's %d plus the segment's %d",
			st.Instrs, st.Cycle, res.Instrs, res.Cycles, res1.Instrs, sys.Stats.TotalInstrs())
	}
	var window uint64
	for _, s := range smp.Samples() {
		window += s.Instrs
	}
	if window != sys.Stats.TotalInstrs() {
		t.Fatalf("samples sum to %d instructions, the resumed segment retired %d", window, sys.Stats.TotalInstrs())
	}
}
