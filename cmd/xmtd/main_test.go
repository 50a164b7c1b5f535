package main

import (
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"xmtgo/internal/daemon"
)

const testProg = `
        .data
A:      .space 64
        .text
        .global main
main:
        li    $t0, 2000
        li    $t2, 0
Lloop:  addiu $t2, $t2, 1
        addiu $t0, $t0, -1
        bne   $t0, $zero, Lloop
        la    $t1, A
        sw    $t2, 0($t1)
        lw    $v0, 0($t1)
        sys   1
        sys   0
`

// TestRunServeSubmitDrain drives the daemon entrypoint in-process: start it
// on a unix socket with metrics serving on, submit and finish a job over the
// protocol, drain, and require the clean exit code.
func TestRunServeSubmitDrain(t *testing.T) {
	dir := t.TempDir()
	sock := filepath.Join(dir, "d.sock")
	code := make(chan int, 1)
	go func() {
		code <- run([]string{
			"-listen", "unix:" + sock,
			"-data", filepath.Join(dir, "data"),
			"-workers", "1",
			"-checkpoint-every", "50000",
			"-set", "mem_bytes=1048576",
			"-serve", "127.0.0.1:0",
		})
	}()

	var c *daemon.Client
	deadline := time.Now().Add(30 * time.Second)
	for {
		var err error
		if c, err = daemon.Dial("unix:" + sock); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer c.Close()

	if _, err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	st, err := c.Submit(&daemon.JobSpec{Name: "t", Kind: "asm", Source: testProg})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	fin, err := c.Wait(st.ID, 30*time.Second)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if fin.State != daemon.StateDone || fin.Result == nil || fin.Result.Output != "2000" {
		t.Fatalf("job finished %s with %+v", fin.State, fin.Result)
	}
	if _, err := c.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	select {
	case got := <-code:
		if got != 0 {
			t.Fatalf("run exited %d after drain, want 0", got)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not exit after drain")
	}
}

// TestRunDrainsOnSignal: a SIGINT drains the daemon from sigctl's callback
// while a job runs. The job is suspended at its next checkpoint, the
// journal ends in its drain record and run returns 0.
func TestRunDrainsOnSignal(t *testing.T) {
	dir := t.TempDir()
	sock := filepath.Join(dir, "d.sock")
	data := filepath.Join(dir, "data")
	code := make(chan int, 1)
	go func() {
		code <- run([]string{"-listen", "unix:" + sock, "-data", data, "-q",
			"-checkpoint-every", "50000", "-set", "mem_bytes=1048576"})
	}()
	var c *daemon.Client
	deadline := time.Now().Add(30 * time.Second)
	for {
		// A ping is answered once Serve runs, and so after the signal
		// handler is installed.
		var err error
		if c, err = daemon.Dial("unix:" + sock); err == nil {
			if _, err = c.Ping(); err == nil {
				break
			}
			c.Close()
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer c.Close()
	long := strings.Replace(testProg, "2000", "20000000", 1)
	st, err := c.Submit(&daemon.JobSpec{Name: "long", Kind: "asm", Source: long})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	for s := st; s.State != daemon.StateRunning; time.Sleep(10 * time.Millisecond) {
		if s, err = c.Status(st.ID); err != nil {
			t.Fatalf("status: %v", err)
		}
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-code:
		if got != 0 {
			t.Fatalf("run exited %d after SIGINT, want 0", got)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not exit after SIGINT")
	}
	_, recs, err := daemon.OpenJournal(filepath.Join(data, "jobs.journal"))
	if err != nil || len(recs) < 2 || recs[len(recs)-1].Kind != daemon.RecDrain || recs[len(recs)-2].Reason != "drain" {
		t.Fatalf("journal after SIGINT (err %v): %+v, want the job suspended for drain, then the drain record", err, recs)
	}
}

func TestRunFatalPaths(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"bad preset", []string{"-config", "nope", "-data", filepath.Join(dir, "a")}},
		{"bad set", []string{"-set", "bogus", "-data", filepath.Join(dir, "b")}},
		{"bad serve addr", []string{"-serve", "127.0.0.1:99999", "-data", filepath.Join(dir, "c")}},
		{"bad listen addr", []string{"-listen", "unix:" + filepath.Join(dir, "missing", "d.sock"), "-data", filepath.Join(dir, "d")}},
	} {
		if got := run(tc.args); got != 1 {
			t.Errorf("%s: run = %d, want 1", tc.name, got)
		}
	}
}
