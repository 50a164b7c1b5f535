package xmtgo_test

import (
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"xmtgo/internal/daemon"
)

// contractLoop prints, then runs a serial loop far longer than the test
// waits: the master passes a quiescent point every few cycles.
const contractLoop = `int main() {
    int i; int s = 0;
    print_int(1);
    for (i = 0; i < 100000000; i++) s += i;
    print_int(s);
    return 0;
}
`

// contractSpin never reaches a quiescent point once its spawn starts: its
// threads spin forever, so only a forced exit ends it.
const contractSpin = `int main() {
    spawn(0, 3) {
        while (1) { }
    }
    return 0;
}
`

// TestCLIExitContract pins the exit statuses the simulation CLIs share
// (docs/ROBUSTNESS.md): 2 for a usage error, 1 for a run error, 0 when one
// SIGINT stops a run at its next quiescent point, and 130 when a second
// SIGINT forces the exit of a run that never reaches one. xmtd's clean stop
// is its drain, so its journal then ends in a drain record.
func TestCLIExitContract(t *testing.T) {
	bins := cliTools(t)
	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	srcs := map[string]string{"loop": contractLoop, "spin": contractSpin}
	for name, src := range srcs {
		c := write(name+".c", src)
		if msg, err := exec.Command(bins["xmtcc"], "-o", filepath.Join(dir, name+".s"), c).CombinedOutput(); err != nil {
			t.Fatalf("xmtcc %s: %v\n%s", c, err, msg)
		}
		write(name+".jobs", name+" "+c+"\n")
	}
	// Every run serves /status and samples every 100 cycles, so the test
	// can see the simulation well past its start (and so inside the spin's
	// spawn) before it signals.
	serve := func(args ...string) []string {
		return append([]string{"-serve", "127.0.0.1:0", "-sample-cycles", "100"}, args...)
	}
	xmtdData := func(prog string) string { return filepath.Join(dir, "xmtd-"+prog) }

	for _, c := range []struct {
		tool          string
		usage, runErr []string
		run           func(prog string) []string
	}{
		{"xmtsim", []string{"-no-such-flag"}, []string{filepath.Join(dir, "missing.s")},
			func(p string) []string { return serve(filepath.Join(dir, p+".s")) }},
		{"xmtrun", []string{"-no-such-flag"}, []string{filepath.Join(dir, "missing.c")},
			func(p string) []string { return serve(filepath.Join(dir, p+".c")) }},
		{"xmtbatch", []string{"-no-such-flag"}, []string{filepath.Join(dir, "missing.jobs")},
			func(p string) []string {
				return serve("-checkpoint-every", "100000", "-out", filepath.Join(dir, "xmtbatch-"+p), filepath.Join(dir, p+".jobs"))
			}},
		{"xmtd", []string{"-no-such-flag"}, []string{"-config", "nope", "-data", filepath.Join(dir, "xmtd-bad")},
			func(p string) []string {
				return serve("-checkpoint-every", "100000", "-listen", "unix:"+filepath.Join(xmtdData(p), "d.sock"),
					"-data", xmtdData(p))
			}},
	} {
		t.Run(c.tool, func(t *testing.T) {
			bin := bins[c.tool]
			if _, stderr, exit := runCLI(t, "", bin, c.usage...); exit != 2 {
				t.Errorf("usage error %v: exit %d, want 2\n%s", c.usage, exit, stderr)
			}
			if _, stderr, exit := runCLI(t, "", bin, c.runErr...); exit != 1 {
				t.Errorf("run error %v: exit %d, want 1\n%s", c.runErr, exit, stderr)
			}

			p := startRunning(t, bin, c.run("loop"), srcs["loop"])
			p.cmd.Process.Signal(syscall.SIGINT)
			if exit := p.wait(t); exit != 0 {
				t.Errorf("one SIGINT: exit %d, want 0\n%s", exit, p.out.String())
			}
			if c.tool == "xmtd" {
				_, recs, err := daemon.OpenJournal(filepath.Join(xmtdData("loop"), "jobs.journal"))
				if err != nil || len(recs) == 0 || recs[len(recs)-1].Kind != daemon.RecDrain {
					t.Errorf("xmtd journal after one SIGINT (err %v): %+v, want it to end in a drain record", err, recs)
				}
			}

			p = startRunning(t, bin, c.run("spin"), srcs["spin"])
			p.cmd.Process.Signal(syscall.SIGINT)
			p.waitOutput(t, regexp.MustCompile(`signal again`))
			p.cmd.Process.Signal(syscall.SIGINT)
			if exit := p.wait(t); exit != 130 {
				t.Errorf("second SIGINT: exit %d, want 130\n%s", exit, p.out.String())
			}
		})
	}
}

// cliProc is a CLI process whose stdout and stderr go to one buffer.
type cliProc struct {
	cmd *exec.Cmd
	out lockedOutput
}

type lockedOutput struct {
	mu sync.Mutex
	b  strings.Builder
}

func (o *lockedOutput) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.b.Write(p)
}

func (o *lockedOutput) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.b.String()
}

// startRunning starts bin with args and returns once its /status reports
// the simulation past cycle 1000. An xmtd is first given src as a job.
func startRunning(t *testing.T, bin string, args []string, src string) *cliProc {
	t.Helper()
	p := &cliProc{cmd: exec.Command(bin, args...)}
	p.cmd.Stdout, p.cmd.Stderr = &p.out, &p.out
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.cmd.Process.Kill() })
	addr := p.waitOutput(t, regexp.MustCompile(`serving metrics on (http://\S+)`))[1]
	if strings.HasSuffix(bin, "xmtd") {
		sock := p.waitOutput(t, regexp.MustCompile(`xmtd listening on unix:(\S+) `))[1]
		c, err := daemon.Dial("unix:" + sock)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Submit(&daemon.JobSpec{Name: "contract", Kind: "xmtc", Source: src}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st struct {
			Cycle int64 `json:"cycle"`
		}
		if resp, err := http.Get(addr + "/status"); err == nil {
			json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
		}
		if st.Cycle >= 1000 {
			return p
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never passed cycle 1000\n%s", bin, p.out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitOutput waits for re to match the process's output and returns the
// match.
func (p *cliProc) waitOutput(t *testing.T, re *regexp.Regexp) []string {
	t.Helper()
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if m := re.FindStringSubmatch(p.out.String()); m != nil {
			return m
		}
	}
	t.Fatalf("no %q in the output of %s:\n%s", re, p.cmd.Path, p.out.String())
	return nil
}

// wait returns the process's exit status, killing it after 60 s.
func (p *cliProc) wait(t *testing.T) int {
	t.Helper()
	timer := time.AfterFunc(60*time.Second, func() { p.cmd.Process.Kill() })
	defer timer.Stop()
	if err := p.cmd.Wait(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatal(err)
		}
		return ee.ExitCode()
	}
	return 0
}
