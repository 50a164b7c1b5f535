// End-to-end crash recovery for the xmtd simulation daemon (docs/XMTD.md):
// a real daemon process, real xmtctl clients over a unix socket, a real
// kill -9 mid-job, and a restart on the same data directory that must
// resume the interrupted job from its journaled checkpoint and finish it
// with the right output. scripts/check.sh runs this by name as the xmtd
// gate.
package xmtgo_test

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// daemonLoopSrc is a register-dominated loop with a final store: it retires
// every cycle, so the daemon's periodic checkpoints fire on schedule (a
// blocking load/store loop would starve the quiescent-point check — see
// docs/XMTD.md), and it prints its iteration count so recovery is checked
// against real output.
func daemonLoopSrc(iters int) string {
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

func TestCLIDaemonCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	dir := t.TempDir()
	bins := map[string]string{}
	for _, tool := range []string{"xmtd", "xmtctl"} {
		out := filepath.Join(dir, tool)
		if msg, err := exec.Command("go", "build", "-o", out, "./cmd/"+tool).CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, msg)
		}
		bins[tool] = out
	}

	// ~60M cycles: several seconds of wall clock, so the kill lands mid-job.
	longS := filepath.Join(dir, "long.s")
	if err := os.WriteFile(longS, []byte(daemonLoopSrc(20_000_000)), 0o644); err != nil {
		t.Fatal(err)
	}
	shortS := filepath.Join(dir, "short.s")
	if err := os.WriteFile(shortS, []byte(daemonLoopSrc(2000)), 0o644); err != nil {
		t.Fatal(err)
	}

	sock := "unix:" + filepath.Join(dir, "xmtd.sock")
	dataDir := filepath.Join(dir, "data")

	startDaemon := func() *exec.Cmd {
		t.Helper()
		cmd := exec.Command(bins["xmtd"],
			"-listen", sock, "-data", dataDir,
			"-workers", "1", "-checkpoint-every", "200000",
			"-set", "mem_bytes=1048576")
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// Wait for the listening announcement before any client call.
		ready := make(chan bool, 1)
		go func() {
			buf := make([]byte, 4096)
			var got []byte
			for {
				n, err := stderr.Read(buf)
				got = append(got, buf[:n]...)
				if strings.Contains(string(got), "xmtd listening on ") {
					ready <- true
				}
				if err != nil {
					return
				}
			}
		}()
		select {
		case <-ready:
		case <-time.After(30 * time.Second):
			cmd.Process.Kill()
			t.Fatal("xmtd never announced its listening address")
		}
		return cmd
	}

	ctl := func(args ...string) (string, error) {
		out, err := exec.Command(bins["xmtctl"], append([]string{"-addr", sock}, args...)...).CombinedOutput()
		return string(out), err
	}
	mustCtl := func(args ...string) string {
		t.Helper()
		out, err := ctl(args...)
		if err != nil {
			t.Fatalf("xmtctl %v: %v\n%s", args, err, out)
		}
		return out
	}
	jobStatus := func(id string) (state string, cycles int64, resumes, preemptions int) {
		t.Helper()
		out := mustCtl("-json", "status", id)
		var st struct {
			State       string `json:"state"`
			Cycles      int64  `json:"cycles"`
			Resumes     int    `json:"resumes"`
			Preemptions int    `json:"preemptions"`
		}
		if err := json.Unmarshal([]byte(out), &st); err != nil {
			t.Fatalf("status %s: %v\n%s", id, err, out)
		}
		return st.State, st.Cycles, st.Resumes, st.Preemptions
	}

	daemon1 := startDaemon()
	longID := strings.TrimSpace(mustCtl("submit", "-name", "long", "-priority", "1", longS))

	// A higher-priority job must preempt the running long job at its next
	// checkpoint boundary, complete, and hand the worker back.
	waitUntil := func(desc string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", desc)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	waitUntil("long job to start running", func() bool {
		state, _, _, _ := jobStatus(longID)
		return state == "running"
	})
	shortID := strings.TrimSpace(mustCtl("submit", "-name", "short", "-priority", "9", shortS))
	out := mustCtl("wait", "-timeout", "60s", shortID)
	if !strings.Contains(out, `output="2000"`) {
		t.Fatalf("short job result missing its output:\n%s", out)
	}
	waitUntil("long job to be preempted and resume", func() bool {
		state, _, _, preemptions := jobStatus(longID)
		return preemptions >= 1 && state == "running"
	})

	// Let the resumed long job persist at least one post-resume checkpoint,
	// then kill -9 the daemon mid-flight.
	_, cyclesAtPreempt, _, _ := jobStatus(longID)
	waitUntil("a post-resume checkpoint", func() bool {
		_, cycles, _, _ := jobStatus(longID)
		return cycles > cyclesAtPreempt
	})
	if err := daemon1.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	daemon1.Wait()

	// Restart on the same data directory: the journal replay must re-queue
	// the interrupted job, resume it from its last checkpoint envelope, and
	// finish with the correct output.
	daemon2 := startDaemon()
	defer func() {
		if daemon2.ProcessState == nil {
			daemon2.Process.Kill()
			daemon2.Wait()
		}
	}()
	out = mustCtl("-json", "wait", "-timeout", "120s", longID)
	var done struct {
		State   string `json:"state"`
		Resumes int    `json:"resumes"`
		Result  *struct {
			Output  string `json:"output"`
			MemHash string `json:"memhash"`
		} `json:"result"`
	}
	if err := json.Unmarshal([]byte(out), &done); err != nil {
		t.Fatalf("wait after restart: %v\n%s", err, out)
	}
	if done.State != "done" || done.Result == nil {
		t.Fatalf("recovered job did not complete: %s", out)
	}
	if done.Result.Output != "20000000" {
		t.Fatalf("recovered job output %q, want %q", done.Result.Output, "20000000")
	}
	var info struct {
		Recoveries uint64 `json:"recoveries"`
		Completed  uint64 `json:"completed"`
	}
	if err := json.Unmarshal([]byte(mustCtl("ping")), &info); err != nil {
		t.Fatal(err)
	}
	if info.Recoveries < 1 {
		t.Errorf("daemon reports %d recoveries after kill -9, want >= 1", info.Recoveries)
	}

	// Graceful drain: the daemon writes the clean-shutdown marker and the
	// process exits 0.
	mustCtl("drain")
	exited := make(chan error, 1)
	go func() { exited <- daemon2.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("xmtd exited non-zero after drain: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("xmtd did not exit after drain")
	}
	journal, err := os.ReadFile(filepath.Join(dataDir, "jobs.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(journal), `"kind":"drain"`) {
		t.Error("journal missing the clean-shutdown drain marker")
	}
	// Both jobs are done, the killed one included: neither left its
	// checkpoint file behind.
	ents, err := os.ReadDir(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "jobs.journal" {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Errorf("data directory holds %v after every job finished, want only jobs.journal", names)
	}
}
