package simcli

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xmtgo/internal/asm"
	"xmtgo/internal/config"
	"xmtgo/internal/diag"
	"xmtgo/internal/jobrun"
)

const testProgram = `int n = 0;
int A[8];
int total = 0;
int main() {
    spawn(0, n - 1) {
        int v = A[$];
        psm(v, total);
    }
    print_int(total);
    checkpoint();
    print_int(n);
    return 0;
}
`

// TestMainInvocations drives the front end in-process through every output it can be
// asked for and every refusal it makes, checking exit status and one marker
// per output. The byte-level contracts live in the root package's CLI and
// golden tests.
func TestMainInvocations(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	write := func(name, content string) string {
		t.Helper()
		if err := os.WriteFile(path(name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path(name)
	}
	prog := write("prog.c", testProgram)
	mem := write("in.map", "n = 4\nA = 10 20 30 40\n")
	cfgFile := write("machine.cfg", "dram_latency = 20\n")
	chip, err := config.Preset("chip1024")
	if err != nil {
		t.Fatal(err)
	}
	tool := Tool{
		Name: "simtest",
		Arg:  "program.c",
		Load: func(file, src string) (*asm.Program, []diag.Diagnostic, error) {
			return jobrun.Load("xmtc", file, src)
		},
	}

	for _, c := range []struct {
		name   string
		args   []string
		exit   int
		stdout string   // exact, when non-empty
		stderr []string // substrings
		files  []string // must exist afterwards
	}{
		{name: "describe", args: []string{"-describe", "-config", "chip1024"}, stdout: chip.Describe()},
		{name: "help", args: []string{"-h"}, stderr: []string{"-counters-json"}},
		{name: "no program", args: nil, exit: 2, stderr: []string{"usage: simtest [flags] program.c"}},
		{name: "unknown flag", args: []string{"-no-such-flag", prog}, exit: 2},
		{name: "unknown preset", args: []string{"-config", "nope", prog}, exit: 1, stderr: []string{"simtest:"}},
		{name: "missing file", args: []string{path("absent.c")}, exit: 1, stderr: []string{"simtest:"}},
		{name: "compile error", args: []string{write("bad.c", "int main() { return x; }\n")}, exit: 1, stderr: []string{"bad.c"}},

		{name: "cycle reports", stdout: "100",
			args: []string{"-config-file", cfgFile, "-mem", mem, "-stats", "-hot", "-histogram", "-counters", "-profile",
				"-thermal", "-floorplan", "-race-check", "-workers", "2", "-watchdog", "100000",
				"-fault", "icndelay:4@50-400", "-fault-seed", "9",
				"-trace", "cycle", "-trace-tcu", "-1", "-trace-op", "spawn", "-dump", "A:4", "-dump", "total",
				"-checkpoint", path("cycle.ckpt"), prog},
			stderr: []string{"instructions (checkpoint) ===", "checkpoint written to", "spawns=1", "xmtsan:", "== instructions ==",
				"A @0x", " 10 20 30 40", "total @0x", "die temperature", "spawn"},
			files: []string{"cycle.ckpt"}},
		{name: "cycle resume", stdout: "4", args: []string{"-mem", mem, "-resume", path("cycle.ckpt"), "-floorplan", prog},
			stderr: []string{"(halted) ===", "per-cluster committed instructions"}},
		{name: "cycle files", stdout: "100",
			args: []string{"-mem", mem, "-trace", path("trace.json"), "-sample-cycles", "100",
				"-samples", path("samples.csv"), "-counters-json", path("counters.json"), prog},
			stderr: []string{"chrome trace written to", "interval samples written to"},
			files:  []string{"trace.json", "samples.csv", "counters.json"}},
		{name: "cycle budget", args: []string{"-mem", mem, "-max-cycles", "5", prog}, stderr: []string{"(cycle budget exhausted) ==="}},
		{name: "samples without interval", args: []string{"-samples", path("s.jsonl"), prog}, exit: 1, stderr: []string{"needs a sampling interval"}},
		{name: "backend in cycle mode", args: []string{"-backend", "vm", prog}, exit: 1, stderr: []string{"-backend applies to the functional mode"}},
		{name: "bad dump symbol", args: []string{"-dump", "nosuch", prog}, exit: 1, stderr: []string{`unknown data symbol "nosuch"`}},
		{name: "bad dump count", args: []string{"-dump", "A:x", prog}, exit: 1, stderr: []string{"bad -dump count"}},
		{name: "bad trace op", args: []string{"-trace", "func", "-trace-op", "nosuch", prog}, exit: 1},

		{name: "func vm", stdout: "1004", args: []string{"-mode", "func", "-mem", mem, "-checkpoint", path("vm.ckpt"), "-dump", "total", prog},
			stderr: []string{"checkpoint written to", "(functional mode, vm backend) ===", "total @0x"}, files: []string{"vm.ckpt"}},
		{name: "func interp", stdout: "1004",
			args:   []string{"-mode", "func", "-backend", "interp", "-mem", mem, "-trace", "func", "-checkpoint", path("interp.ckpt"), prog},
			stderr: []string{"checkpoint written to", "(functional mode) ===", "psm"}, files: []string{"interp.ckpt"}},
		{name: "func resume across backends", stdout: "4", args: []string{"-mode", "func", "-mem", mem, "-resume", path("interp.ckpt"), prog}},
		{name: "resume from a file that is no checkpoint", args: []string{"-mode", "func", "-resume", mem, prog}, exit: 1},
		{name: "func refuses counters", args: []string{"-mode", "func", "-counters", prog}, exit: 1, stderr: []string{"need the cycle-accurate mode"}},
		{name: "func refuses race-check", args: []string{"-mode", "func", "-race-check", prog}, exit: 1, stderr: []string{"-race-check needs"}},
		{name: "func refuses serve", args: []string{"-mode", "func", "-serve", "127.0.0.1:0", prog}, exit: 1, stderr: []string{"-serve need"}},
	} {
		var stdout, stderr strings.Builder
		if exit := Main(tool, c.args, &stdout, &stderr); exit != c.exit {
			t.Errorf("%s: exit %d, want %d\n%s", c.name, exit, c.exit, stderr.String())
			continue
		}
		if c.stdout != "" && stdout.String() != c.stdout {
			t.Errorf("%s: stdout %q, want %q", c.name, stdout.String(), c.stdout)
		}
		for _, want := range c.stderr {
			if !strings.Contains(stderr.String(), want) {
				t.Errorf("%s: stderr lacks %q:\n%s", c.name, want, stderr.String())
			}
		}
		for _, f := range c.files {
			if st, err := os.Stat(path(f)); err != nil || st.Size() == 0 {
				t.Errorf("%s: %s not written (%v)", c.name, f, err)
			}
		}
	}
}
