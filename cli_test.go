package xmtgo_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// cliBuild holds the drivers the CLI tests run, built once per test process
// (TestMain removes the directory).
var cliBuild struct {
	once sync.Once
	dir  string
	err  error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if cliBuild.dir != "" {
		os.RemoveAll(cliBuild.dir)
	}
	os.Exit(code)
}

// cliTools returns tool name → binary path for xmtcc, xmtsim, xmtrun,
// xmtbatch and xmtd.
func cliTools(t *testing.T) map[string]string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	tools := []string{"xmtcc", "xmtsim", "xmtrun", "xmtbatch", "xmtd"}
	cliBuild.once.Do(func() {
		if cliBuild.dir, cliBuild.err = os.MkdirTemp("", "xmtcli"); cliBuild.err != nil {
			return
		}
		args := []string{"build", "-o", cliBuild.dir + string(filepath.Separator)}
		for _, tool := range tools {
			args = append(args, "./cmd/"+tool)
		}
		if msg, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			cliBuild.err = fmt.Errorf("go build: %v\n%s", err, msg)
		}
	})
	if cliBuild.err != nil {
		t.Fatal(cliBuild.err)
	}
	bins := map[string]string{}
	for _, tool := range tools {
		bins[tool] = filepath.Join(cliBuild.dir, tool)
	}
	return bins
}

// TestCLITools exercises the drivers' main paths end to end: compile, simulate (both modes, with stats, overrides and memory
// maps), trace, describe, and the compile-and-run one-step tool.
func TestCLITools(t *testing.T) {
	bins := cliTools(t)
	dir := t.TempDir()

	src := `
int n = 0;
int A[64];
int total = 0;
int main() {
    spawn(0, n - 1) {
        int v = A[$];
        psm(v, total);
    }
    print_int(total);
    return 0;
}
`
	cFile := filepath.Join(dir, "prog.c")
	if err := os.WriteFile(cFile, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	mapFile := filepath.Join(dir, "in.map")
	if err := os.WriteFile(mapFile, []byte("n = 4\nA = 10 20 30 40\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	run := func(name string, args ...string) string {
		t.Helper()
		out, err := exec.Command(bins[name], args...).CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		return string(out)
	}

	// xmtcc: compile to assembly, with stats and prepass dump.
	sFile := filepath.Join(dir, "prog.s")
	run("xmtcc", "-o", sFile, "-v", cFile)
	asmText, err := os.ReadFile(sFile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(asmText), "spawn") || !strings.Contains(string(asmText), "psm") {
		t.Fatalf("assembly missing spawn/psm:\n%s", asmText)
	}
	dump := run("xmtcc", "-dump-prepass", cFile)
	if !strings.Contains(dump, "__outl_main_0") {
		t.Fatalf("prepass dump missing outlined function:\n%s", dump)
	}
	irDump := run("xmtcc", "-dump-ir", cFile)
	if !strings.Contains(irDump, "func main") {
		t.Fatalf("ir dump:\n%s", irDump)
	}

	// xmtsim: cycle mode with memory map, stats and overrides.
	out := run("xmtsim", "-config", "fpga64", "-mem", mapFile, "-stats", "-set", "dram_latency=20", sFile)
	if !strings.Contains(out, "100") {
		t.Fatalf("expected program output 100 in:\n%s", out)
	}
	if !strings.Contains(out, "cycles") || !strings.Contains(out, "spawns=1") {
		t.Fatalf("stats missing:\n%s", out)
	}
	// Functional mode.
	out = run("xmtsim", "-mode", "func", "-mem", mapFile, sFile)
	if !strings.Contains(out, "100") || !strings.Contains(out, "functional mode") {
		t.Fatalf("functional mode:\n%s", out)
	}
	// Memory dump (Fig. 3's "memory dump" output).
	out = run("xmtsim", "-mem", mapFile, "-dump", "A:4", "-dump", "total", sFile)
	if !strings.Contains(out, "10 20 30 40") || !strings.Contains(out, "total @") {
		t.Fatalf("memory dump:\n%s", out)
	}

	// Describe.
	out = run("xmtsim", "-describe", "-config", "chip1024")
	if !strings.Contains(out, "total TCUs: 1024") {
		t.Fatalf("describe:\n%s", out)
	}
	// Trace limited to the master and one mnemonic.
	out = run("xmtsim", "-mem", mapFile, "-trace", "cycle", "-trace-tcu", "-1", "-trace-op", "spawn", sFile)
	if !strings.Contains(out, "spawn") {
		t.Fatalf("trace:\n%s", out)
	}

	// xmtrun: one-step compile and simulate.
	out = run("xmtrun", "-config", "fpga64", "-mem", mapFile, cFile)
	if !strings.Contains(out, "100") {
		t.Fatalf("xmtrun:\n%s", out)
	}

	// xmtrun under an injected fault plan with the watchdog armed: benign
	// timing faults must not change the program result.
	out = run("xmtrun", "-config", "fpga64", "-mem", mapFile,
		"-fault", "icndelay:4@50-400;cachestall:2x100@50-400", "-fault-seed", "9",
		"-watchdog", "100000", cFile)
	if !strings.Contains(out, "100") {
		t.Fatalf("xmtrun with faults:\n%s", out)
	}

	// Telemetry artifacts: interval samples (JSONL and CSV) and the
	// machine-readable counter snapshot.
	samplesJSONL := filepath.Join(dir, "samples.jsonl")
	countersJSON := filepath.Join(dir, "counters.json")
	run("xmtsim", "-mem", mapFile, "-sample-cycles", "100",
		"-samples", samplesJSONL, "-counters-json", countersJSON, sFile)
	if data, err := os.ReadFile(samplesJSONL); err != nil || !strings.Contains(string(data), `"schema":"xmt-samples/v1"`) {
		t.Fatalf("samples JSONL: err=%v\n%s", err, data)
	}
	if data, err := os.ReadFile(countersJSON); err != nil || !strings.Contains(string(data), `"schema": "xmt-counters/v1"`) {
		t.Fatalf("counters JSON: err=%v\n%s", err, data)
	}
	// Through the CLI, the observability fixture's snapshot is byte for byte
	// the golden TestObservabilityGolden pins in-process.
	run("xmtrun", "-config", "fpga64", "-counters-json", countersJSON, filepath.Join("testdata", "observability", "fixture.c"))
	got, err := os.ReadFile(countersJSON)
	if err != nil {
		t.Fatal(err)
	}
	if want, err := os.ReadFile(filepath.Join("testdata", "observability", "counters.json.golden")); err != nil || string(got) != string(want) {
		t.Fatalf("xmtrun -counters-json on fixture.c differs from counters.json.golden (err=%v):\n%s", err, got)
	}
	samplesCSV := filepath.Join(dir, "samples.csv")
	run("xmtrun", "-mem", mapFile, "-sample-cycles", "100", "-samples", samplesCSV, cFile)
	if data, err := os.ReadFile(samplesCSV); err != nil || !strings.HasPrefix(string(data), "cycle,ticks,window_cycles") {
		t.Fatalf("samples CSV: err=%v\n%s", err, data)
	}

	// xmtbatch: a two-job batch (one .s, one .c with overrides) from a jobs
	// file, with checkpoint persistence enabled.
	jobsFile := filepath.Join(dir, "jobs.txt")
	jobs := "# batch smoke test\n" +
		"asmjob " + sFile + "\n" +
		"cjob " + cFile + " dram_latency=20\n"
	if err := os.WriteFile(jobsFile, []byte(jobs), 0o644); err != nil {
		t.Fatal(err)
	}
	out = run("xmtbatch", "-config", "fpga64", "-timeout", "10000000",
		"-checkpoint-every", "5000", "-retries", "1",
		"-out", filepath.Join(dir, "ckpt"), jobsFile)
	if !strings.Contains(out, "ok   asmjob") || !strings.Contains(out, "ok   cjob") {
		t.Fatalf("xmtbatch:\n%s", out)
	}
}

// serveLoopAsm is a long serial load-modify-store loop: enough cycles
// that the live metrics server can be scraped while the run is still in
// flight.
const serveLoopAsm = `
        .data
A:      .space 64
        .text
        .global main
main:
        li    $t0, 200000000
        la    $t1, A
Lloop:  lw    $t2, 0($t1)
        addiu $t2, $t2, 1
        sw    $t2, 0($t1)
        addiu $t0, $t0, -1
        bne   $t0, $zero, Lloop
        sys   0
`

// TestCLIServeEndpoints starts xmtsim with -serve on an ephemeral port,
// parses the advertised address from stderr, and scrapes /metrics and
// /status mid-run. This is the end-to-end smoke test for the live
// telemetry endpoint; scripts/check.sh runs it by name.
func TestCLIServeEndpoints(t *testing.T) {
	bin := cliTools(t)["xmtsim"]
	dir := t.TempDir()
	sFile := filepath.Join(dir, "loop.s")
	if err := os.WriteFile(sFile, []byte(serveLoopAsm), 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(bin, "-serve", "127.0.0.1:0", "-sample-cycles", "500", sFile)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	// The driver announces the bound address on stderr:
	//   serving metrics on http://ADDR (/metrics /status /stream)
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "serving metrics on http://"); ok {
				addr, _, _ := strings.Cut(rest, " ")
				addrCh <- addr
				return
			}
		}
		close(addrCh)
	}()
	var addr string
	select {
	case a, ok := <-addrCh:
		if !ok {
			t.Fatal("xmtsim exited without announcing a metrics address")
		}
		addr = a
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for the metrics address on stderr")
	}

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		return string(body)
	}

	// Publishes happen at sampling boundaries; poll until the first one.
	deadline := time.Now().Add(30 * time.Second)
	var body string
	for {
		body = get("/metrics")
		if strings.Contains(body, "xmt_cycle ") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no sample published within 30s; /metrics:\n%s", body)
		}
		time.Sleep(50 * time.Millisecond)
	}
	for _, family := range []string{
		"# TYPE xmt_cycle gauge",
		"# TYPE xmt_instructions_total counter",
		"# TYPE xmt_stall_cycles_total counter",
		"# TYPE xmt_cache_hits_total counter",
		"# TYPE xmt_engine_windows_total counter",
		"xmt_tcus_alive 64",
		"xmt_interval_window_cycles 500",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("/metrics missing %q:\n%s", family, body)
		}
	}

	var st struct {
		Cycle     int64  `json:"cycle"`
		Instrs    uint64 `json:"instrs"`
		AliveTCUs int    `json:"alive_tcus"`
		Done      bool   `json:"done"`
	}
	if err := json.Unmarshal([]byte(get("/status")), &st); err != nil {
		t.Fatalf("/status: %v", err)
	}
	if st.Cycle <= 0 || st.Instrs == 0 || st.AliveTCUs != 64 {
		t.Errorf("/status = %+v", st)
	}
	if st.Done {
		t.Error("/status reports done while the loop is still running")
	}
}

// TestCLIFailurePaths covers two failures the drivers must handle without
// damage: a checkpoint write that fails midway leaves the previous
// checkpoint intact (the two-stage signal contract of docs/ROBUSTNESS.md
// promises a resumable file), and xmtbatch rejects handwritten assembly the
// post-pass refuses when it loads the jobs file, not at run time.
func TestCLIFailurePaths(t *testing.T) {
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

	// The program traps into a checkpoint at once, so every run below
	// reaches its checkpoint write. The write is made to fail with a
	// 512-byte file-size limit on the child (a checkpoint is megabytes); a
	// read-only directory would not do it, because the tests may run as
	// root, which ignores directory permissions.
	cFile := write("ckpt.c", "int main() { checkpoint(); print_int(7); return 0; }\n")
	sFile := filepath.Join(dir, "ckpt.s")
	if msg, err := exec.Command(bins["xmtcc"], "-o", sFile, cFile).CombinedOutput(); err != nil {
		t.Fatalf("xmtcc: %v\n%s", err, msg)
	}
	const previous = "the previous checkpoint"
	for _, c := range [][]string{
		{bins["xmtsim"], sFile},
		{bins["xmtsim"], "-mode", "func", "-backend", "interp", sFile},
		{bins["xmtsim"], "-mode", "func", "-backend", "vm", sFile},
		{bins["xmtrun"], cFile},
	} {
		ckpt := write("state.ckpt", previous)
		args := append([]string{"-c", `ulimit -f 1; exec "$@"`, "sh", c[0], "-checkpoint", ckpt}, c[1:]...)
		out, err := exec.Command("sh", args...).CombinedOutput()
		if err == nil {
			t.Errorf("%v: exit 0 although the checkpoint write failed\n%s", c, out)
		}
		if got, _ := os.ReadFile(ckpt); string(got) != previous {
			t.Errorf("%v: failed write left %d bytes in place of the previous checkpoint\n%s", c, len(got), out)
		}
	}

	// A call inside a spawn region parses and assembles; only the post-pass
	// refuses it.
	bad := write("bad.s", `
        .text
main:   spawn $t0, $t1
L:      chkid $t2
        jal helper
        j L
        join
helper: jr $ra
`)
	jobs := write("jobs.txt", "badjob "+bad+"\n")
	out, err := exec.Command(bins["xmtbatch"], jobs).CombinedOutput()
	if err == nil || !strings.Contains(string(out), bad+":5:") {
		t.Errorf("xmtbatch admitted illegal parallel code (err=%v), want a load error naming %s:5\n%s", err, bad, out)
	}
}

// TestCLICompileFlagRange: xmtcc refuses an optimization level other than
// 0 or 1 and a prefetch budget below one with a usage error, where it used
// to compile them silently as -O1 and as the default budget of 4; xmtrun
// refuses the same levels with the same message.
func TestCLICompileFlagRange(t *testing.T) {
	bins := cliTools(t)
	cFile := filepath.Join(t.TempDir(), "loads.c")
	src := "int A[64]; int B[64]; int C[64]; int D[64];\n" +
		"int main() { spawn(0, 63) { D[$] = A[$] + B[$] + C[$]; } return 0; }\n"
	if err := os.WriteFile(cFile, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		flags    []string
		exit     int
		inStderr string
	}{
		{[]string{"-prefetch-slots", "0"}, 2, "-no-prefetch"},
		{[]string{"-prefetch-slots", "-1"}, 2, "-no-prefetch"},
		{[]string{"-O", "7"}, 2, "-O must be 0 or 1"},
		{[]string{"-O", "-1"}, 2, "-O must be 0 or 1"},
		{[]string{"-prefetch-slots", "1"}, 0, "prefetches inserted: 1"},
		{[]string{"-no-prefetch"}, 0, "prefetches inserted: 0"},
		{[]string{"-O", "0"}, 0, "prefetches inserted: 3"},
	} {
		args := append(append([]string{"-v", "-o", os.DevNull}, c.flags...), cFile)
		_, stderr, exit := runCLI(t, "", bins["xmtcc"], args...)
		if exit != c.exit || !strings.Contains(stderr, c.inStderr) {
			t.Errorf("xmtcc %v: exit %d, want %d with %q in stderr:\n%s", c.flags, exit, c.exit, c.inStderr, stderr)
		}
	}
	// xmtrun compiles by the same rule: its -O is xmtcc's.
	for _, c := range []struct {
		flags    []string
		exit     int
		inStderr string
	}{
		{[]string{"-O", "7"}, 2, "xmtrun: -O must be 0 or 1"},
		{[]string{"-O", "-1"}, 2, "xmtrun: -O must be 0 or 1"},
		{[]string{"-O", "0"}, 0, ""},
	} {
		args := append(append([]string{"-mode", "func"}, c.flags...), cFile)
		_, stderr, exit := runCLI(t, "", bins["xmtrun"], args...)
		if exit != c.exit || !strings.Contains(stderr, c.inStderr) {
			t.Errorf("xmtrun %v: exit %d, want %d with %q in stderr:\n%s", c.flags, exit, c.exit, c.inStderr, stderr)
		}
	}
}

// ckptProgram traps into a checkpoint between two prints and two stores, so a
// run resumed from that checkpoint has a visible remainder.
const ckptProgram = `int A[4];
int main() { A[0] = 3; print_int(1); checkpoint(); A[1] = 4; print_int(7); return 0; }
`

// runCLI runs one tool invocation in dir (empty: the test's own) and returns
// its stdout, stderr and exit status.
func runCLI(t *testing.T, dir, bin string, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	var out, errb strings.Builder
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%s %v: %v", bin, args, err)
		}
		exit = ee.ExitCode()
	}
	return out.String(), errb.String(), exit
}

// TestCLIFrontEndEquivalence holds xmtrun to being xmtcc + xmtsim: for each
// program and flag set, compiling with xmtcc and simulating the assembly
// with xmtsim gives the same stdout, exit status, stderr (modulo tool and
// file name) and telemetry files as xmtrun on the source. The flag sets of
// the two tools differ by exactly xmtrun's four compile flags.
func TestCLIFrontEndEquivalence(t *testing.T) {
	bins := cliTools(t)
	dir := t.TempDir()
	fixture, err := os.ReadFile("testdata/observability/fixture.c")
	if err != nil {
		t.Fatal(err)
	}
	telemetry := []string{"-sample-cycles", "100", "-samples", "samples.jsonl", "-counters-json", "counters.json"}
	flagSets := [][]string{
		telemetry,
		append([]string{"-stats", "-counters"}, telemetry...),
		append([]string{"-race-check"}, telemetry...),
		{"-mode", "func"},
		{"-mode", "func", "-backend", "interp", "-dump", "A:2"},
		{"-mode", "func", "-counters-json", "counters.json"}, // refused alike: exit 1
	}
	for name, src := range map[string]string{"fixture": string(fixture), "ckpt": ckptProgram} {
		cFile, sFile := filepath.Join(dir, name+".c"), filepath.Join(dir, name+".s")
		if err := os.WriteFile(cFile, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, msg, exit := runCLI(t, "", bins["xmtcc"], "-o", sFile, cFile); exit != 0 {
			t.Fatalf("xmtcc %s: exit %d\n%s", name, exit, msg)
		}
		for _, flags := range flagSets {
			type result struct {
				stdout, stderr    string
				exit              int
				samples, counters []byte
			}
			var got [2]result
			for i, tool := range []string{"xmtsim", "xmtrun"} {
				work := filepath.Join(dir, tool)
				os.RemoveAll(work)
				if err := os.Mkdir(work, 0o755); err != nil {
					t.Fatal(err)
				}
				file := []string{sFile, cFile}[i]
				r := &got[i]
				r.stdout, r.stderr, r.exit = runCLI(t, work, bins[tool],
					append(append([]string{"-checkpoint", "state.ckpt"}, flags...), file)...)
				r.stderr = strings.NewReplacer(file, "FILE", tool, "TOOL").Replace(r.stderr)
				r.samples, _ = os.ReadFile(filepath.Join(work, "samples.jsonl"))
				r.counters, _ = os.ReadFile(filepath.Join(work, "counters.json"))
			}
			sim, run := got[0], got[1]
			if sim.stdout != run.stdout || sim.exit != run.exit || sim.stderr != run.stderr {
				t.Errorf("%s %v:\nxmtsim: exit %d stdout %q stderr:\n%s\nxmtrun: exit %d stdout %q stderr:\n%s",
					name, flags, sim.exit, sim.stdout, sim.stderr, run.exit, run.stdout, run.stderr)
			}
			if string(sim.samples) != string(run.samples) || string(sim.counters) != string(run.counters) {
				t.Errorf("%s %v: -samples or -counters-json bytes differ between xmtsim and xmtrun", name, flags)
			}
			if slices.Contains(flags, "-samples") && (len(sim.samples) == 0 || len(sim.counters) == 0) {
				t.Errorf("%s %v: xmtsim wrote no telemetry (%d sample bytes, %d counter bytes)", name, flags, len(sim.samples), len(sim.counters))
			}
		}
	}

	flagNames := func(tool string) map[string]bool {
		_, usage, _ := runCLI(t, "", bins[tool], "-h")
		names := map[string]bool{}
		for _, line := range strings.Split(usage, "\n") {
			if rest, ok := strings.CutPrefix(line, "  -"); ok {
				name, _, _ := strings.Cut(rest, " ")
				names[name] = true
			}
		}
		return names
	}
	sim, run := flagNames("xmtsim"), flagNames("xmtrun")
	for _, own := range []string{"O", "cluster", "no-prefetch", "no-nbstore"} {
		if !run[own] || sim[own] {
			t.Errorf("compile flag -%s: xmtrun has it %v, xmtsim has it %v", own, run[own], sim[own])
		}
		delete(run, own)
	}
	if len(sim) == 0 || !maps.Equal(sim, run) {
		t.Errorf("apart from the compile flags the two flag sets differ:\nxmtsim %v\nxmtrun %v", sim, run)
	}
}

// TestCLIRunCheckpointResume: the checkpoint xmtrun writes is resumable by
// xmtrun. In functional mode a checkpoint() call writes the file and the run
// goes on (either backend); in cycle mode it writes the file and stops. The
// resumed run prints the rest of the output and ends in the memory of a run
// that was never checkpointed.
func TestCLIRunCheckpointResume(t *testing.T) {
	bins := cliTools(t)
	dir := t.TempDir()
	cFile := filepath.Join(dir, "ckpt.c")
	if err := os.WriteFile(cFile, []byte(ckptProgram), 0o644); err != nil {
		t.Fatal(err)
	}
	memory := func(stderr string) string {
		_, dump, _ := strings.Cut(stderr, "A @")
		return dump
	}
	wantOut, wantErr, _ := runCLI(t, "", bins["xmtrun"], "-mode", "func", "-dump", "A:2", cFile)
	if wantOut != "17" || memory(wantErr) == "" {
		t.Fatalf("reference run: stdout %q stderr:\n%s", wantOut, wantErr)
	}
	for _, c := range []struct {
		mode     []string
		firstLeg string // stdout of the run that writes the checkpoint
	}{
		{[]string{"-mode", "func", "-backend", "vm"}, "17"},
		{[]string{"-mode", "func", "-backend", "interp"}, "17"},
		{[]string{"-mode", "cycle"}, "1"},
	} {
		ckpt := filepath.Join(dir, "state.ckpt")
		os.Remove(ckpt)
		args := func(extra ...string) []string {
			return append(append(append([]string{}, c.mode...), extra...), "-dump", "A:2", cFile)
		}
		out, msg, exit := runCLI(t, "", bins["xmtrun"], args("-checkpoint", ckpt)...)
		if _, err := os.Stat(ckpt); err != nil || exit != 0 || out != c.firstLeg {
			t.Errorf("xmtrun %v -checkpoint: exit %d, stdout %q (want %q), %v\n%s", c.mode, exit, out, c.firstLeg, err, msg)
			continue
		}
		out, msg, exit = runCLI(t, "", bins["xmtrun"], args("-resume", ckpt)...)
		if exit != 0 || "1"+out != wantOut || memory(msg) != memory(wantErr) {
			t.Errorf("xmtrun %v -resume: exit %d, stdout %q (want the rest of %q), stderr:\n%swant memory %s",
				c.mode, exit, out, wantOut, msg, memory(wantErr))
		}
	}
}

// twoLoops accumulates in two loops with a checkpoint() call between them,
// so the instructions of a run stopped there and resumed are split about
// evenly between the two legs.
const twoLoops = `int main() {
    int s = 0;
    for (int i = 0; i < 2000; i++) s += i;
    checkpoint();
    for (int i = 0; i < 2000; i++) s += i;
    print_int(s);
    return 0;
}
`

// TestCLIResumeReportsProgramTotals: a resumed run reports the program's
// totals, not its last leg's. The cycle-mode run that stops at the
// checkpoint and the one resumed from it print the instruction count of the
// functional run, which never stops; so does a functional resume, from
// either mode's checkpoint.
func TestCLIResumeReportsProgramTotals(t *testing.T) {
	bin := cliTools(t)["xmtrun"]
	dir := t.TempDir()
	cFile := filepath.Join(dir, "p.c")
	if err := os.WriteFile(cFile, []byte(twoLoops), 0o644); err != nil {
		t.Fatal(err)
	}
	banner := regexp.MustCompile(`=== (?:\d+ cycles, )?(\d+) instructions \(([^)]*)\) ===`)
	run := func(args ...string) (instrs, end string) {
		t.Helper()
		out, msg, exit := runCLI(t, "", bin, append(args, cFile)...)
		m := banner.FindStringSubmatch(msg)
		if exit != 0 || m == nil || (m[2] != "checkpoint" && out != "3998000") {
			t.Fatalf("xmtrun %v: exit %d, stdout %q, stderr:\n%s", args, exit, out, msg)
		}
		return m[1], m[2]
	}
	want, _ := run("-mode", "func")
	cycleCkpt, funcCkpt := filepath.Join(dir, "cycle.ckpt"), filepath.Join(dir, "func.ckpt")
	if n, end := run("-checkpoint", cycleCkpt); end != "checkpoint" || n == want {
		t.Fatalf("cycle run: %s instructions (%s), want a stop at the checkpoint short of %s", n, end, want)
	}
	run("-mode", "func", "-checkpoint", funcCkpt)
	for _, args := range [][]string{
		{"-resume", cycleCkpt},
		{"-mode", "func", "-resume", cycleCkpt},
		{"-mode", "func", "-resume", funcCkpt},
		{"-mode", "func", "-backend", "interp", "-resume", funcCkpt},
	} {
		if n, end := run(args...); n != want || end == "checkpoint" {
			t.Errorf("xmtrun %v: %s instructions (%s), want the uninterrupted %s", args, n, end, want)
		}
	}
}

// batchLoopAsm prints once, runs a serial loop of about nine million cycles
// and prints the loop's sum: a job long enough to be stopped between
// checkpoints, whose output has a part before and a part after any of them.
const batchLoopAsm = `
        .text
main:
        li    $v0, 1
        sys   1
        li    $t0, 3000000
        li    $t1, 0
L:      addu  $t1, $t1, $t0
        addiu $t0, $t0, -1
        bgtz  $t0, L
        move  $v0, $t1
        sys   1
        sys   0
`

// TestCLIBatchResumeAfterInterrupt: a batch stopped by SIGINT after its
// first checkpoint exits 0 with an INTR line; re-running the same command
// finishes the job with the instruction count and output of an
// uninterrupted run, not just of the part after the checkpoint; and a third
// run reports the same line from the journal without starting an attempt.
func TestCLIBatchResumeAfterInterrupt(t *testing.T) {
	bin := cliTools(t)["xmtbatch"]
	dir := t.TempDir()
	sFile := filepath.Join(dir, "loop.s")
	jobs := filepath.Join(dir, "jobs.txt")
	if err := os.WriteFile(sFile, []byte(batchLoopAsm), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jobs, []byte("loop "+sFile+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	want, msg, exit := runCLI(t, "", bin, "-q", jobs)
	if exit != 0 || !strings.HasPrefix(want, "ok   loop ") {
		t.Fatalf("uninterrupted run: exit %d, stdout %q\n%s", exit, want, msg)
	}
	totals := func(line string) string { // "instrs=... output=..."
		_, rest, _ := strings.Cut(line, " instrs=")
		return rest
	}
	args := []string{"-checkpoint-every", "500000", "-out", filepath.Join(dir, "out"), jobs}

	cmd := exec.Command(bin, args...)
	var stdout strings.Builder
	cmd.Stdout = &stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	timer := time.AfterFunc(60*time.Second, func() { cmd.Process.Kill() })
	defer timer.Stop()
	var log strings.Builder
	sc := bufio.NewScanner(stderr)
	signaled := false
	for sc.Scan() {
		log.WriteString(sc.Text() + "\n")
		if !signaled && strings.Contains(sc.Text(), `"msg":"checkpoint"`) {
			cmd.Process.Signal(os.Interrupt)
			signaled = true
		}
	}
	err = cmd.Wait()
	if !signaled || err != nil || !strings.HasPrefix(stdout.String(), "INTR loop ") {
		t.Fatalf("interrupted run: signaled=%v, exit %v, stdout %q\n%s", signaled, err, stdout.String(), log.String())
	}

	resumed, msg, exit := runCLI(t, "", bin, args...)
	if exit != 0 || !strings.HasPrefix(resumed, "ok   loop ") || totals(resumed) != totals(want) {
		t.Fatalf("resumed run: exit %d, stdout %q, want the totals of %q\n%s", exit, resumed, want, msg)
	}
	again, msg, exit := runCLI(t, "", bin, args...)
	if exit != 0 || again != resumed || strings.Contains(msg, `"msg":"attempt started"`) {
		t.Fatalf("third run: exit %d, stdout %q, want %q from the journal with no new attempt\n%s", exit, again, resumed, msg)
	}
}
