package daemon

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xmtgo/internal/config"
)

// loopSrc is a serial register loop with a final store: register-dominated
// so the master passes architecturally quiescent points every cycle (a
// back-to-back blocking-memory loop would starve checkpoint boundaries —
// see docs/XMTD.md), with the result written to memory and printed so both
// the memory image and the output witness bit-identical completion.
func loopSrc(iters int) string {
	return fmt.Sprintf(`
        .data
A:      .space 64
        .text
        .global main
main:
        li    $t0, %d
        li    $t2, 0
Lloop:  addiu $t2, $t2, 1
        addiu $t0, $t0, -1
        bne   $t0, $zero, Lloop
        la    $t1, A
        sw    $t2, 0($t1)
        lw    $v0, 0($t1)
        sys   1
        sys   0
`, iters)
}

const (
	longIters  = 2_000_000 // ~6M cycles: survives many checkpoint boundaries
	shortIters = 2000      // ~6k cycles: finishes almost immediately
)

// testConfig is the machine the test daemons run: fpga64 with 1 MB of
// memory.
func testConfig(t *testing.T) config.Config {
	t.Helper()
	cfg, err := config.Preset("fpga64")
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Set("mem_bytes=1048576"); err != nil {
		t.Fatal(err)
	}
	return cfg
}

func newDaemon(t *testing.T, dir string, mod func(*Options)) *Daemon {
	t.Helper()
	opts := Options{
		Config:          testConfig(t),
		DataDir:         dir,
		Workers:         1,
		CheckpointEvery: 50000,
		Retries:         2,
		Backoff:         2,
	}
	if mod != nil {
		mod(&opts)
	}
	d, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func mustSubmit(t *testing.T, d *Daemon, spec *JobSpec) *JobStatus {
	t.Helper()
	st, aerr := d.Submit(spec)
	if aerr != nil {
		t.Fatalf("submit %s: %v", spec.Name, aerr)
	}
	return st
}

func mustDone(t *testing.T, d *Daemon, id string) *JobResult {
	t.Helper()
	st, aerr := d.Wait(id, 30*time.Second)
	if aerr != nil {
		t.Fatalf("wait %s: %v", id, aerr)
	}
	if st.State != StateDone {
		t.Fatalf("job %s: state %s, result %+v", id, st.State, st.Result)
	}
	return st.Result
}

// refResult runs the spec uninterrupted (fresh daemon, no periodic
// checkpoints beyond the default) and returns its terminal result: the
// bit-identity yardstick for preempted, retried and crash-recovered runs.
func refResult(t *testing.T, spec JobSpec) *JobResult {
	t.Helper()
	d := newDaemon(t, t.TempDir(), func(o *Options) { o.CheckpointEvery = 0 })
	defer d.Close()
	st := mustSubmit(t, d, &spec)
	return mustDone(t, d, st.ID)
}

// sameResult asserts bit-identical architectural artifacts: program output,
// the memory/registers fingerprint and the retired-instruction count (the
// job's total over every segment it ran in, not its last segment's). Cycle
// counts are deliberately not compared — as in TestCycleCheckpointResume, a
// checkpoint holds only architectural state, so runs with different
// checkpoint histories legitimately drift by a few cycles while ending in
// the same state.
func sameResult(t *testing.T, got, want *JobResult, context string) {
	t.Helper()
	if got.Output != want.Output || got.MemHash != want.MemHash {
		t.Errorf("%s: result diverged from uninterrupted run:\n got  output=%q memhash=%s\n want output=%q memhash=%s",
			context, got.Output, got.MemHash, want.Output, want.MemHash)
	}
	if got.Instrs != want.Instrs || want.Instrs == 0 {
		t.Errorf("%s: instrs = %d, uninterrupted run retired %d", context, got.Instrs, want.Instrs)
	}
}

func TestDaemonCompletesJobs(t *testing.T) {
	d := newDaemon(t, t.TempDir(), func(o *Options) { o.Workers = 2 })
	defer d.Close()

	var ids []string
	for i := 0; i < 3; i++ {
		st := mustSubmit(t, d, &JobSpec{Name: fmt.Sprintf("s%d", i), Source: loopSrc(shortIters + i)})
		ids = append(ids, st.ID)
	}
	for i, id := range ids {
		res := mustDone(t, d, id)
		want := fmt.Sprintf("%d", shortIters+i)
		if res.Output != want {
			t.Errorf("job %s: output %q, want %q", id, res.Output, want)
		}
		if res.MemHash == "" {
			t.Errorf("job %s: missing memhash", id)
		}
	}
	info := d.Info()
	if info.Completed != 3 || info.Failed != 0 {
		t.Errorf("info: completed=%d failed=%d, want 3/0", info.Completed, info.Failed)
	}
	jobs := d.List("")
	if len(jobs) != 3 {
		t.Errorf("list: %d jobs, want 3", len(jobs))
	}
}

func TestDaemonTypedErrors(t *testing.T) {
	d := newDaemon(t, t.TempDir(), func(o *Options) {
		o.MaxQueued = 2
		o.TenantMaxQueued = 1
		o.TenantMaxBudget = 5_000_000
	})
	defer d.Close()

	codeOf := func(_ *JobStatus, aerr *APIError) string {
		if aerr == nil {
			return "ok"
		}
		return aerr.Code
	}

	if got := codeOf(d.Submit(&JobSpec{})); got != ErrBadRequest {
		t.Errorf("empty spec: %s, want %s", got, ErrBadRequest)
	}
	if got := codeOf(d.Submit(&JobSpec{Source: "not asm at all $$$", BudgetCycles: 1000})); got != ErrCompile {
		t.Errorf("bad program: %s, want %s", got, ErrCompile)
	}
	// Handwritten assembly is verified by the post-pass at submit: a call
	// inside a spawn region parses and assembles, but must not be admitted.
	callInSpawn := `
        .text
main:   spawn $t0, $t1
L:      chkid $t2
        jal helper
        j L
        join
helper: jr $ra
`
	if _, aerr := d.Submit(&JobSpec{Name: "bad", Kind: "asm", Source: callInSpawn, BudgetCycles: 1000}); aerr == nil ||
		aerr.Code != ErrCompile || !strings.Contains(aerr.Message, "bad:5:") {
		t.Errorf("illegal parallel code: %v, want %s naming bad:5", aerr, ErrCompile)
	}
	if got := codeOf(d.Submit(&JobSpec{Source: loopSrc(10), Kind: "fortran", BudgetCycles: 1000})); got != ErrBadRequest {
		t.Errorf("bad kind: %s, want %s", got, ErrBadRequest)
	}
	// A config Validate rejects is refused at submit, before the journal:
	// a negative cache latency would schedule into the past and crash a
	// worker, zero clusters would fail the job only once it ran.
	for _, set := range []string{"cache_hit_latency=-100", "clusters=0"} {
		if got := codeOf(d.Submit(&JobSpec{Source: loopSrc(10), Sets: []string{set}, BudgetCycles: 1000})); got != ErrBadRequest {
			t.Errorf("sets %s: %s, want %s", set, got, ErrBadRequest)
		}
	}
	if got := codeOf(d.Submit(&JobSpec{Source: loopSrc(10)})); got != ErrQuotaExceeded {
		t.Errorf("unlimited budget under budget quota: %s, want %s", got, ErrQuotaExceeded)
	}
	if got := codeOf(d.Submit(&JobSpec{Source: loopSrc(10), BudgetCycles: 9_000_000})); got != ErrQuotaExceeded {
		t.Errorf("budget over quota: %s, want %s", got, ErrQuotaExceeded)
	}
	if _, aerr := d.Status("j999"); aerr == nil || aerr.Code != ErrNotFound {
		t.Errorf("unknown id: %v, want %s", aerr, ErrNotFound)
	}

	// Occupy the single worker so subsequent submissions stay queued.
	blocker := mustSubmit(t, d, &JobSpec{Name: "blocker", Source: loopSrc(longIters), BudgetCycles: 4_000_000})
	waitFor(t, "blocker running", func() bool {
		st, _ := d.Status(blocker.ID)
		return st != nil && st.State == StateRunning
	})
	if got := codeOf(d.Submit(&JobSpec{Tenant: "a", Source: loopSrc(11), BudgetCycles: 1000})); got != "ok" {
		t.Fatalf("first queued job for tenant a: %s", got)
	}
	if got := codeOf(d.Submit(&JobSpec{Tenant: "a", Source: loopSrc(12), BudgetCycles: 1000})); got != ErrQuotaExceeded {
		t.Errorf("tenant queue quota: %s, want %s", got, ErrQuotaExceeded)
	}
	if got := codeOf(d.Submit(&JobSpec{Tenant: "b", Source: loopSrc(13), BudgetCycles: 1000})); got != "ok" {
		t.Fatalf("second queued job (tenant b): %s", got)
	}
	if got := codeOf(d.Submit(&JobSpec{Tenant: "c", Source: loopSrc(14), BudgetCycles: 1000})); got != ErrQueueFull {
		t.Errorf("global queue bound: %s, want %s", got, ErrQueueFull)
	}

	// Cancel the blocker (running: stops at next checkpoint) and a queued
	// job (immediate).
	if _, aerr := d.Cancel(blocker.ID); aerr != nil {
		t.Fatal(aerr)
	}
	waitFor(t, "blocker canceled", func() bool {
		st, _ := d.Status(blocker.ID)
		return st != nil && st.State == StateCanceled
	})
}

func TestDaemonPreemptResumeBitIdentical(t *testing.T) {
	spec := JobSpec{Name: "victim", Source: loopSrc(longIters)}
	want := refResult(t, spec)

	d := newDaemon(t, t.TempDir(), nil) // 1 worker
	defer d.Close()
	victim := mustSubmit(t, d, &spec)
	waitFor(t, "victim running", func() bool {
		st, _ := d.Status(victim.ID)
		return st != nil && st.State == StateRunning
	})

	hi := mustSubmit(t, d, &JobSpec{Name: "urgent", Priority: 10, Source: loopSrc(shortIters)})
	hiRes := mustDone(t, d, hi.ID)
	if hiRes.Output != fmt.Sprintf("%d", shortIters) {
		t.Errorf("urgent job output %q", hiRes.Output)
	}
	// The urgent job finished first, which means the victim yielded.
	vicSt, _ := d.Status(victim.ID)
	if vicSt.State == StateDone {
		t.Fatalf("victim finished before the urgent job ran — no preemption happened")
	}

	vicRes := mustDone(t, d, victim.ID)
	sameResult(t, vicRes, want, "preempted+resumed victim")

	fin, _ := d.Status(victim.ID)
	if fin.Preemptions < 1 || fin.Resumes < 1 {
		t.Errorf("victim preemptions=%d resumes=%d, want >=1 each", fin.Preemptions, fin.Resumes)
	}
	if info := d.Info(); info.Preemptions < 1 {
		t.Errorf("daemon preemption counter %d, want >=1", info.Preemptions)
	}
}

func TestDaemonCrashRecovery(t *testing.T) {
	spec := JobSpec{Name: "survivor", Source: loopSrc(longIters)}
	queuedSpec := JobSpec{Name: "pending", Source: loopSrc(shortIters)}
	want := refResult(t, spec)
	wantQueued := refResult(t, queuedSpec)

	dir := t.TempDir()
	d1 := newDaemon(t, dir, nil)
	run := mustSubmit(t, d1, &spec)
	queued := mustSubmit(t, d1, &queuedSpec)

	// Let the running job pass at least one durable checkpoint, then
	// "crash": workers abandon work without journaling clean records —
	// on-disk state is exactly what kill -9 leaves.
	waitFor(t, "first checkpoint", func() bool {
		st, _ := d1.Status(run.ID)
		return st != nil && st.Cycles > 0
	})
	d1.Abort()

	d2 := newDaemon(t, dir, nil)
	defer d2.Close()
	if info := d2.Info(); info.Recoveries < 1 {
		t.Errorf("recoveries=%d after crash, want >=1", info.Recoveries)
	}
	res := mustDone(t, d2, run.ID)
	sameResult(t, res, want, "crash-recovered job")
	qres := mustDone(t, d2, queued.ID)
	sameResult(t, qres, wantQueued, "queued-at-crash job")

	st, _ := d2.Status(run.ID)
	if st.Resumes < 1 {
		t.Errorf("recovered job resumes=%d, want >=1 (must have resumed from checkpoint)", st.Resumes)
	}
}

func TestDaemonDrainAndResume(t *testing.T) {
	spec := JobSpec{Name: "drained", Source: loopSrc(longIters)}
	want := refResult(t, spec)

	dir := t.TempDir()
	d1 := newDaemon(t, dir, nil)
	st := mustSubmit(t, d1, &spec)
	waitFor(t, "job running", func() bool {
		s, _ := d1.Status(st.ID)
		return s != nil && s.State == StateRunning && s.Cycles > 0
	})
	if err := d1.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The drained daemon suspended the job cleanly: queued, not lost.
	s, _ := d1.Status(st.ID)
	if s.State != StateQueued {
		t.Fatalf("after drain: state %s, want %s", s.State, StateQueued)
	}
	if !d1.Info().Draining {
		t.Error("info must report draining")
	}
	// Admission is closed.
	if _, aerr := d1.Submit(&JobSpec{Source: loopSrc(10)}); aerr == nil || aerr.Code != ErrDraining {
		t.Errorf("submit while draining: %v, want %s", aerr, ErrDraining)
	}
	// The journal carries the clean-shutdown marker.
	data, err := os.ReadFile(filepath.Join(dir, "jobs.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"kind":"drain"`) {
		t.Error("journal missing drain record")
	}

	d2 := newDaemon(t, dir, nil)
	defer d2.Close()
	// Clean drain is not a crash: no recovery counted.
	if info := d2.Info(); info.Recoveries != 0 {
		t.Errorf("recoveries=%d after clean drain, want 0", info.Recoveries)
	}
	res := mustDone(t, d2, st.ID)
	sameResult(t, res, want, "drain-suspended job")
}

func TestDaemonRetryWithBackoff(t *testing.T) {
	spec := JobSpec{Name: "slowpoke", Source: loopSrc(longIters)}
	want := refResult(t, spec)

	// First-attempt budget far below the ~6M cycles needed; backoff doubles
	// it each retry, and each retry resumes from the last checkpoint, so
	// the third attempt's 6.4M budget completes the job.
	d := newDaemon(t, t.TempDir(), func(o *Options) { o.BudgetCycles = 1_600_000 })
	defer d.Close()
	st := mustSubmit(t, d, &spec)
	res := mustDone(t, d, st.ID)
	sameResult(t, res, want, "retried job")

	fin, _ := d.Status(st.ID)
	if fin.Attempt < 2 || fin.Resumes < 1 {
		t.Errorf("attempts=%d resumes=%d, want >=2 and >=1", fin.Attempt, fin.Resumes)
	}
	if info := d.Info(); info.Retries < 1 {
		t.Errorf("retry counter %d, want >=1", info.Retries)
	}
}

func TestDaemonDeadlineFailsWithDiagnostic(t *testing.T) {
	d := newDaemon(t, t.TempDir(), func(o *Options) { o.BudgetCycles = 100_000 })
	defer d.Close()
	st := mustSubmit(t, d, &JobSpec{Name: "doomed", Source: loopSrc(longIters), DeadlineCycles: 150_000})
	fin, aerr := d.Wait(st.ID, 30*time.Second)
	if aerr != nil {
		t.Fatal(aerr)
	}
	if fin.State != StateFailed {
		t.Fatalf("state %s, want %s", fin.State, StateFailed)
	}
	if fin.Result == nil || !strings.Contains(fin.Result.Err, "deadline_cycles 150000") {
		t.Errorf("diagnostic %+v must name the deadline", fin.Result)
	}
}

func TestDaemonProtocolOverWire(t *testing.T) {
	d := newDaemon(t, t.TempDir(), nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- d.Serve(ln) }()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	info, err := c.Ping()
	if err != nil {
		t.Fatal(err)
	}
	if info.API != APIVersion {
		t.Errorf("ping api %q, want %q", info.API, APIVersion)
	}

	st, err := c.Submit(&JobSpec{Name: "wire", Source: loopSrc(shortIters)})
	if err != nil {
		t.Fatal(err)
	}
	fin, err := c.Wait(st.ID, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone || fin.Result.Output != fmt.Sprintf("%d", shortIters) {
		t.Fatalf("wire job: %+v", fin)
	}

	jobs, err := c.List("")
	if err != nil || len(jobs) != 1 {
		t.Fatalf("list: %d jobs, err %v", len(jobs), err)
	}

	// Typed errors cross the wire intact.
	if _, err := c.Status("j999"); err == nil {
		t.Error("status of unknown id must fail")
	} else if aerr, ok := err.(*APIError); !ok || aerr.Code != ErrNotFound {
		t.Errorf("wire error %v, want *APIError %s", err, ErrNotFound)
	}

	// Version negotiation.
	if _, err := c.Do(&Request{API: "xmt-jobs/v99", Op: "ping"}); err == nil {
		t.Error("bad api version must be rejected")
	} else if aerr, ok := err.(*APIError); !ok || aerr.Code != ErrUnsupported {
		t.Errorf("version error %v, want %s", err, ErrUnsupported)
	}

	// Drain over the wire: response arrives, then the daemon stops serving.
	if _, err := c.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Errorf("serve returned %v after drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not stop after drain")
	}
	if _, err := Dial(ln.Addr().String()); err == nil {
		t.Error("dial after drain must fail (listener closed)")
	}
}
