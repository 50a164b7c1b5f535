package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xmtgo/internal/config"
	"xmtgo/internal/daemon"
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

// result is one parsed "ok|FAIL|INTR name attempts= resumes= ..." line.
type result struct {
	status, name      string
	attempts, resumes int
	cycles            int64
	instrs            uint64
	output            string
	line              string
}

// batch writes the programs and a jobs file of "name prog [sets]" lines into
// a fresh directory, runs xmtbatch on it in-process with flags, and returns
// the parsed result lines in jobs-file order and the exit status.
func batch(t *testing.T, progs map[string]string, jobLines []string, flags ...string) ([]result, int) {
	t.Helper()
	dir := t.TempDir()
	for name, src := range progs {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var jobs strings.Builder
	for _, l := range jobLines {
		name, rest, _ := strings.Cut(l, " ")
		prog, sets, _ := strings.Cut(rest, " ")
		fmt.Fprintf(&jobs, "%s %s %s\n", name, filepath.Join(dir, prog), sets)
	}
	jobsFile := filepath.Join(dir, "jobs.txt")
	if err := os.WriteFile(jobsFile, []byte(jobs.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	code := run(append(flags, "-q", jobsFile), &stdout, &stderr)
	var res []result
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		var r result
		r.line = line
		f := strings.Fields(line)
		if len(f) < 4 {
			t.Fatalf("malformed result line %q\nstderr:\n%s", line, stderr.String())
		}
		r.status, r.name = f[0], f[1]
		fmt.Sscanf(f[2], "attempts=%d", &r.attempts)
		fmt.Sscanf(strings.TrimSuffix(f[3], ":"), "resumes=%d", &r.resumes)
		if r.status == "ok" {
			fmt.Sscanf(f[4], "cycles=%d", &r.cycles)
			fmt.Sscanf(f[5], "instrs=%d", &r.instrs)
			fmt.Sscanf(line[strings.Index(line, "output="):], "output=%q", &r.output)
		}
		res = append(res, r)
	}
	if len(res) != len(jobLines) {
		t.Fatalf("%d result lines for %d jobs:\n%s\nstderr:\n%s", len(res), len(jobLines), stdout.String(), stderr.String())
	}
	return res, code
}

// TestBatchCompletesFirstTry runs a healthy job with a generous budget.
func TestBatchCompletesFirstTry(t *testing.T) {
	res, code := batch(t, map[string]string{"p.s": longSerialAsm}, []string{"ok p.s"},
		"-timeout", "10000000", "-retries", "0", "-out", t.TempDir())
	if code != 0 || res[0].status != "ok" {
		t.Fatalf("exit %d: %s", code, res[0].line)
	}
	if res[0].attempts != 1 || res[0].resumes != 0 {
		t.Fatalf("attempts=%d resumes=%d, want 1/0", res[0].attempts, res[0].resumes)
	}
	if res[0].output != longSerialSum {
		t.Fatalf("output %q, want %s", res[0].output, longSerialSum)
	}
}

// TestBatchResumesFromCheckpoint gives the first attempt a budget too small
// to finish but large enough to cross checkpoints; the retry must resume
// from the last checkpoint (not restart) and converge under backoff, with
// the totals of an uninterrupted run.
func TestBatchResumesFromCheckpoint(t *testing.T) {
	progs := map[string]string{"p.s": longSerialAsm}
	// Measure the uninterrupted cost once so the budgets below stay valid
	// if machine parameters drift.
	full, code := batch(t, progs, []string{"probe p.s"})
	if code != 0 || full[0].status != "ok" {
		t.Fatalf("probe: exit %d: %s", code, full[0].line)
	}
	need := full[0].cycles

	res, code := batch(t, progs, []string{"resume p.s"},
		"-timeout", fmt.Sprint(need/3), "-checkpoint-every", fmt.Sprint(need/10),
		"-retries", "4", "-backoff", "2", "-out", t.TempDir())
	r := res[0]
	if code != 0 || r.status != "ok" {
		t.Fatalf("exit %d: %s", code, r.line)
	}
	if r.attempts < 2 {
		t.Fatalf("attempts = %d, want a timed-out first attempt", r.attempts)
	}
	if r.resumes == 0 {
		t.Fatal("no attempt resumed from a checkpoint")
	}
	if r.cycles < need {
		t.Fatalf("final cycles %d < uninterrupted %d: resumed run skipped work", r.cycles, need)
	}
	// Totals span every segment and attempt, not just the last one.
	if r.instrs != full[0].instrs || r.output != full[0].output {
		t.Fatalf("instrs=%d output=%q, want the uninterrupted run's %d / %q",
			r.instrs, r.output, full[0].instrs, full[0].output)
	}
}

// TestBatchLeavesOnlyTheJournal: jobs that checkpointed on their way to
// done or to failure leave no checkpoint file in -out, only the journal.
func TestBatchLeavesOnlyTheJournal(t *testing.T) {
	out := t.TempDir()
	res, code := batch(t, map[string]string{"p.s": longSerialAsm, "w.s": memWalkAsm},
		[]string{"a p.s", "b w.s", "c p.s clusters=2", "wedge w.s fault_plan=cachestall:8x100000000@100-120 watchdog_cycles=2000"},
		"-checkpoint-every", "500", "-timeout", "10000000", "-retries", "0", "-out", out)
	if code != 1 || res[3].status != "FAIL" {
		t.Fatalf("exit %d, wedged job %s: want exit 1 and its FAIL line", code, res[3].line)
	}
	for _, r := range res[:3] {
		if r.status != "ok" {
			t.Fatalf("%s, want ok", r.line)
		}
	}
	_, recs, err := daemon.OpenJournal(filepath.Join(out, "jobs.journal"))
	if err != nil {
		t.Fatal(err)
	}
	ckpts := map[string]int{}
	for _, rec := range recs {
		if rec.Kind == daemon.RecCkpt {
			ckpts[rec.ID]++
		}
	}
	if ckpts["j1"] == 0 || ckpts["j2"] == 0 || ckpts["j3"] == 0 {
		t.Fatalf("checkpoints journaled per job: %v; every ok job must have one, or the test proves nothing", ckpts)
	}
	ents, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "jobs.journal" {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("-out holds %v after the batch, want only jobs.journal", names)
	}
}

// TestBatchGivesUpAfterRetries bounds the retry loop: a job wedged by a
// permanent injected stall must fail with the watchdog diagnostic after
// exactly retries+1 attempts, not hang, and the batch must exit 1.
func TestBatchGivesUpAfterRetries(t *testing.T) {
	res, code := batch(t, map[string]string{"w.s": memWalkAsm}, []string{"wedge w.s"},
		"-set", "fault_plan=cachestall:8x100000000@100-120", "-set", "watchdog_cycles=2000",
		"-timeout", "10000000", "-retries", "2", "-out", t.TempDir())
	r := res[0]
	if code != 1 || r.status != "FAIL" {
		t.Fatalf("wedged job: exit %d: %s", code, r.line)
	}
	if !strings.Contains(r.line, "watchdog") {
		t.Fatalf("%q does not carry the watchdog diagnostic", r.line)
	}
	if r.attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (retries+1)", r.attempts)
	}
}

// TestBatchPerJobOverrides applies job-level config sets, and turns a set
// the configuration refuses into that job's FAIL line without stopping the
// others.
func TestBatchPerJobOverrides(t *testing.T) {
	res, code := batch(t, map[string]string{"p.s": longSerialAsm},
		[]string{"tiny p.s clusters=2 cache_modules=2", "bad p.s clusters=-1", "plain p.s"},
		"-timeout", "10000000")
	if code != 1 {
		t.Fatalf("exit %d with a refused set, want 1", code)
	}
	for _, r := range []result{res[0], res[2]} {
		if r.status != "ok" || r.output != longSerialSum {
			t.Fatalf("%s, want ok with output %s", r.line, longSerialSum)
		}
	}
	if res[1].status != "FAIL" || !strings.Contains(res[1].line, "Clusters must be positive") {
		t.Fatalf("refused set: %s, want a FAIL line with the config error", res[1].line)
	}
}

// TestBatchPublishesMonitor runs two jobs with a live metrics server
// attached and checks the daemon block and the per-segment sampler
// publishes.
func TestBatchPublishesMonitor(t *testing.T) {
	var srv *metrics.Server
	newServer = func() *metrics.Server { srv = metrics.NewServer(); return srv }
	defer func() { newServer = metrics.NewServer }()
	res, code := batch(t, map[string]string{"p.s": longSerialAsm}, []string{"a p.s", "b p.s"},
		"-timeout", "10000000", "-serve", "127.0.0.1:0", "-sample-cycles", "500")
	if code != 0 || res[0].status != "ok" || res[1].status != "ok" {
		t.Fatalf("exit %d:\n%s\n%s", code, res[0].line, res[1].line)
	}
	p := srv.Latest()
	if p == nil {
		t.Fatal("no bundle published")
	}
	if p.Status.Daemon == nil {
		t.Fatalf("no daemon block in %+v", p.Status)
	}
	if got := *p.Status.Daemon; got.Completed != 2 || got.Failed != 0 || got.QueueDepth != 0 {
		t.Fatalf("final daemon status = %+v", got)
	}
	// The last published sample comes from job b's finalize at its end
	// cycle, with live counters attached.
	if p.Sample == nil || p.Sample.Cycle == 0 || p.Counters == nil {
		t.Fatalf("bundle missing sample/counters: %+v", p)
	}
}

// TestBatchCancelsUnlistedJobs: a job the journal under -out holds as
// unfinished, under a name the jobs file does not list, is canceled instead
// of being run to completion unseen.
func TestBatchCancelsUnlistedJobs(t *testing.T) {
	out := t.TempDir()
	d, err := daemon.New(daemon.Options{Config: config.FPGA64(), DataDir: out})
	if err != nil {
		t.Fatal(err)
	}
	long := strings.Replace(longSerialAsm, "2000", "3000000", 1) // ~9 M cycles
	if _, aerr := d.Submit(&daemon.JobSpec{Name: "old", Kind: "asm", Source: long}); aerr != nil {
		t.Fatal(aerr)
	}
	d.Drain()

	res, code := batch(t, map[string]string{"p.s": longSerialAsm}, []string{"new p.s"}, "-out", out)
	if code != 0 || res[0].status != "ok" {
		t.Fatalf("exit %d: %s", code, res[0].line)
	}
	_, recs, err := daemon.OpenJournal(filepath.Join(out, "jobs.journal"))
	if err != nil {
		t.Fatal(err)
	}
	last := ""
	for _, rec := range recs {
		if rec.ID == "j1" {
			last = rec.Kind
		}
	}
	if last != daemon.RecCancel {
		t.Fatalf("the unlisted job's last journal record is %q, want %q", last, daemon.RecCancel)
	}
}
