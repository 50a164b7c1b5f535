package batch

import (
	"strings"
	"testing"

	"xmtgo/internal/asm"
	"xmtgo/internal/config"
	"xmtgo/internal/sim/metrics"
)

// longSerialAsm runs a serial accumulation loop long enough to cross
// several checkpoint intervals, then prints the sum.
const longSerialAsm = `
        .text
main:
        li    $t0, 2000
        li    $t1, 0
L:      addu  $t1, $t1, $t0
        addiu $t0, $t0, -1
        bgtz  $t0, L
        move  $v0, $t1
        sys   1
        sys   0
`

const longSerialSum = "2001000" // sum 1..2000

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

// TestBatchCompletesFirstTry runs a healthy job with a generous budget.
func TestBatchCompletesFirstTry(t *testing.T) {
	res := Run([]Job{{Name: "ok", Prog: mustProgram(t, longSerialAsm)}}, Options{
		Config:        config.FPGA64(),
		TimeoutCycles: 10_000_000,
		Retries:       0,
		OutDir:        t.TempDir(),
	})
	if len(res) != 1 || res[0].Err != nil {
		t.Fatalf("job failed: %+v", res)
	}
	if res[0].Attempts != 1 || res[0].Resumes != 0 {
		t.Fatalf("attempts=%d resumes=%d, want 1/0", res[0].Attempts, res[0].Resumes)
	}
	if res[0].Output != longSerialSum {
		t.Fatalf("output %q, want %s", res[0].Output, longSerialSum)
	}
}

// TestBatchResumesFromCheckpoint gives the first attempt a budget too small
// to finish but large enough to cross checkpoints; the retry must resume
// from the last checkpoint (not restart) and converge under backoff.
func TestBatchResumesFromCheckpoint(t *testing.T) {
	prog := mustProgram(t, longSerialAsm)
	dir := t.TempDir()

	// Measure the uninterrupted cost once so the budgets below stay valid
	// if machine parameters drift.
	full := Run([]Job{{Name: "probe", Prog: prog}}, Options{Config: config.FPGA64(), OutDir: dir})
	if full[0].Err != nil {
		t.Fatalf("probe failed: %v", full[0].Err)
	}
	need := full[0].Cycles

	res := Run([]Job{{Name: "resume", Prog: prog}}, Options{
		Config:          config.FPGA64(),
		TimeoutCycles:   need / 3,
		CheckpointEvery: need / 10,
		Retries:         4,
		Backoff:         2,
		OutDir:          dir,
	})[0]
	if res.Err != nil {
		t.Fatalf("job failed: %v", res.Err)
	}
	if res.Attempts < 2 {
		t.Fatalf("attempts = %d, want a timed-out first attempt", res.Attempts)
	}
	if res.Resumes == 0 {
		t.Fatal("no attempt resumed from a checkpoint")
	}
	// The final attempt's output suffix must end with the program's print
	// (the print happens after the last checkpoint or the output is empty —
	// either way the job result reflects a completed run).
	if !strings.HasSuffix(longSerialSum, res.Output) {
		t.Fatalf("final output %q is not a suffix of %q", res.Output, longSerialSum)
	}
	if res.Cycles < need {
		t.Fatalf("final cycles %d < uninterrupted %d: resumed run skipped work", res.Cycles, need)
	}
	// Totals span every segment and attempt, not just the last one.
	if res.Instrs != full[0].Instrs || res.Output != full[0].Output {
		t.Fatalf("instrs=%d output=%q, want the uninterrupted run's %d / %q",
			res.Instrs, res.Output, full[0].Instrs, full[0].Output)
	}
}

// memWalkAsm walks memory a cache line per iteration, so the master is
// always a few cycles from its next shared-cache access — an injected
// permanent stall of every module wedges it.
const memWalkAsm = `
        .data
A:      .space 8192
        .text
main:
        la    $t0, A
        li    $t1, 0
        li    $t3, 0
L:      lw    $t2, 0($t0)
        addu  $t1, $t1, $t2
        addiu $t0, $t0, 32
        addiu $t3, $t3, 1
        slti  $at, $t3, 200
        bne   $at, $zero, L
        move  $v0, $t1
        sys   1
        sys   0
`

// TestBatchGivesUpAfterRetries bounds the retry loop: a job wedged by a
// permanent injected stall must fail with the watchdog diagnostic after
// exactly Retries+1 attempts, not hang.
func TestBatchGivesUpAfterRetries(t *testing.T) {
	cfg := config.FPGA64()
	cfg.FaultPlan = "cachestall:8x100000000@100-120"
	cfg.WatchdogCycles = 2000
	res := Run([]Job{{Name: "wedge", Prog: mustProgram(t, memWalkAsm)}}, Options{
		Config:        cfg,
		TimeoutCycles: 10_000_000,
		Retries:       2,
		OutDir:        t.TempDir(),
	})[0]
	if res.Err == nil {
		t.Fatal("wedged job reported success")
	}
	if !strings.Contains(res.Err.Error(), "watchdog") {
		t.Fatalf("error %q does not carry the watchdog diagnostic", res.Err)
	}
	if res.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (retries+1)", res.Attempts)
	}
}

// TestBatchPerJobOverrides applies job-level config Sets.
func TestBatchPerJobOverrides(t *testing.T) {
	res := Run([]Job{{
		Name: "tiny",
		Prog: mustProgram(t, longSerialAsm),
		Sets: []string{"clusters=2", "cache_modules=2"},
	}}, Options{Config: config.FPGA64(), TimeoutCycles: 10_000_000})
	if len(res) != 1 || res[0].Err != nil {
		t.Fatalf("job failed: %+v", res)
	}
	if res[0].Output != longSerialSum {
		t.Fatalf("output %q, want %s", res[0].Output, longSerialSum)
	}
}

// TestBatchPublishesMonitor runs two jobs with a live metrics server
// attached (not listening; we read the published bundles directly) and
// checks the batch progress block and the per-segment sampler publishes.
func TestBatchPublishesMonitor(t *testing.T) {
	srv := metrics.NewServer()
	prog := mustProgram(t, longSerialAsm)
	res := Run([]Job{
		{Name: "a", Prog: prog},
		{Name: "b", Prog: prog},
	}, Options{
		Config:        config.FPGA64(),
		TimeoutCycles: 10_000_000,
		OutDir:        t.TempDir(),
		Monitor:       srv,
		SampleCycles:  500,
	})
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("job %s failed: %v", r.Name, r.Err)
		}
	}
	p := srv.Latest()
	if p == nil {
		t.Fatal("no bundle published")
	}
	if p.Status.Batch == nil {
		t.Fatalf("no batch block in %+v", p.Status)
	}
	if got := *p.Status.Batch; got.JobsTotal != 2 || got.JobsDone != 2 || got.JobsFailed != 0 {
		t.Fatalf("final batch status = %+v", got)
	}
	// The last published sample comes from job b's finalize at its end
	// cycle, with live counters attached.
	if p.Sample == nil || p.Sample.Cycle == 0 || p.Counters == nil {
		t.Fatalf("bundle missing sample/counters: %+v", p)
	}
}
