// The case matrix of the determinism gates: the one definition of what the
// root package's bit-identity tests run and compare. ROADMAP aim 3 makes
// bit-identity across host workers, lookahead, engine mode and
// checkpoint/resume the oracle; every gate below is a short filter over
// this file.
//
//   - A case (mcase) is a corpus program, a config — preset, host workers,
//     lookahead, engine mode, fault plan, xmtsan, watchdog — and an observer
//     set: event log, interval sampler, line profile, filter plug-in, an
//     activity plug-in on the Control API, the power/thermal manager. It
//     runs under a cycle budget, optionally chopped into checkpoint
//     segments.
//   - runCase is the one runner. Every run yields one artifact bundle and,
//     under -v, logs one manifest line: the case id, the final cycle,
//     Sched.Executed, the final time and a SHA-256 of each artifact.
//   - same is the one comparator; it names each artifact that differs.
//
// The file compiles alone (`go test -c ./matrix_test.go`), so
// `sh scripts/ab.sh REV TestName...` can copy it into an export of any
// commit and diff the two sides' manifests case by case. Re-bless the
// observability goldens after a deliberate change with
//
//	go test -run TestObservabilityGolden -update .
package xmtgo_test

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"xmtgo"
	"xmtgo/internal/isa"
	"xmtgo/internal/sim/cycle"
	"xmtgo/internal/sim/metrics"
	"xmtgo/internal/sim/stats"
	"xmtgo/internal/sim/trace"
	"xmtgo/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the observability golden files")

// corpusProg is one program of the matrix: XMTC source, or assembly when
// asm is set.
type corpusProg struct {
	name, src string
	asm       bool
	memmaps   []string
	// skipMem: the program is correct under any thread interleaving but
	// places results at interleaving-dependent positions (a ps-grabbed
	// compaction index, a psm-claimed BFS parent), so the functional and
	// cycle models' memories legitimately differ byte-wise.
	skipMem bool
}

// conformanceCorpus lists every program generator in internal/workloads,
// both the parallel and the serial-reference variants.
func conformanceCorpus() []corpusProg {
	var cases []corpusProg
	add := func(name, src string, memmaps ...string) {
		cases = append(cases, corpusProg{name: name, src: src, memmaps: memmaps})
	}
	addNondet := func(name, src string, memmaps ...string) {
		cases = append(cases, corpusProg{name: name, src: src, memmaps: memmaps, skipMem: true})
	}
	for _, g := range []workloads.TableIGroup{
		workloads.ParallelMemory, workloads.ParallelCompute,
		workloads.SerialMemory, workloads.SerialCompute,
	} {
		work := 8
		if g == workloads.SerialMemory || g == workloads.SerialCompute {
			work = 400
		}
		add("tableI-"+g.Name(), workloads.TableI(g, 64, work))
	}
	comp, _ := workloads.Compaction(256, 0.3, 7)
	addNondet("compaction", comp) // B[] order depends on ps grab order
	redPar, redSer, _ := workloads.Reduction(512)
	add("reduction-par", redPar)
	add("reduction-ser", redSer)
	vecPar, vecSer, _ := workloads.VecAdd(512)
	add("vecadd-par", vecPar)
	add("vecadd-ser", vecSer)
	mmPar, mmSer := workloads.MatMul(10)
	add("matmul-par", mmPar)
	add("matmul-ser", mmSer)
	psPar, psSer, _, _ := workloads.PrefixSum(256)
	add("prefixsum-par", psPar)
	add("prefixsum-ser", psSer)
	g := workloads.RandomGraph(96, 5, 3)
	bfsPar, bfsSer := workloads.BFS(256, 2048)
	addNondet("bfs-par", bfsPar, g.MemMap()) // frontier order depends on psm claim order
	add("bfs-ser", bfsSer, g.MemMap())
	fftPar, fftSer := workloads.FFT(64)
	add("fft-par", fftPar)
	add("fft-ser", fftSer)
	cg, _ := workloads.ComponentsGraph(96, 4, 3, 11)
	conPar, conSer := workloads.Connectivity(256, 4096)
	add("connectivity-par", conPar, cg)
	add("connectivity-ser", conSer, cg)
	return cases
}

// corpus is every program of the matrix by name: the conformance corpus
// plus the programs only the determinism and robustness gates run.
var corpus = sync.OnceValue(func() map[string]corpusProg {
	m := map[string]corpusProg{}
	for _, p := range conformanceCorpus() {
		m[p.name] = p
	}
	for _, p := range []corpusProg{
		{name: "tableI-parmem-chip1024", src: workloads.TableI(workloads.ParallelMemory, 1024, 4)},
		{name: "tableI-parmem-wide-clusters", src: workloads.TableI(workloads.ParallelMemory, 256, 1)},
		{name: "stop-div", src: strings.Replace(stopProgram, "STOP", "div $t8, $t3, $zero", 1), asm: true},
		{name: "stop-halt", src: strings.Replace(stopProgram, "STOP", "sys 0", 1), asm: true},
		{name: "watchdog", src: watchdogProgram, asm: true},
		{name: "epoch-race", src: epochRaceProgram},
	} {
		m[p.name] = p
	}
	src, err := os.ReadFile(filepath.Join("testdata", "observability", "fixture.c"))
	if err != nil {
		panic(err)
	}
	m["fixture"] = corpusProg{name: "fixture", src: string(src)}
	return m
})

// stopProgram spawns 1024 threads that each multiply in a loop, convert to
// float and store; thread 200 then runs STOP, which the corpus replaces with
// an instruction that ends the run from a TCU. On chip1024 the stop comes in
// the first round of threads, on fpga64 in the fourth.
const stopProgram = `
        .data
A:      .space 4096
        .text
main:
        la    $t0, A
        bcast $t0
        li    $a0, 0
        li    $a1, 1023
        fence
        spawn $a0, $a1
Lgrab:  addiu $tid, $zero, 1
        ps    $tid, g63
        chkid $tid
        andi  $t2, $tid, 7
        addiu $t2, $t2, 2
        addu  $t3, $zero, $tid
Lwork:  mul   $t3, $t3, $t2
        sll   $t4, $t3, 1
        xor   $t3, $t3, $t4
        addiu $t2, $t2, -1
        bgtz  $t2, Lwork
        cvt.s.w $t9, $t3
        sll   $t5, $tid, 2
        addu  $t5, $t0, $t5
        sw    $t3, 0($t5)
        andi  $t6, $tid, 255
        addiu $t7, $zero, 200
        bne   $t6, $t7, Lnext
        STOP
Lnext:  j     Lgrab
        join
        sys   0
`

// watchdogProgram retires steadily through a long register loop (quiet
// watchdog, regular quiescent checkpoint boundaries), then issues a single
// DRAM load. With dram_latency raised above the watchdog window, that load
// is a no-retire stall the watchdog must kill; with a large window it simply
// completes and the program prints its result and halts.
const watchdogProgram = `
        .data
A:      .word 7
B:      .space 64
        .text
        .global main
main:
        li    $t0, 20000
        li    $t2, 0
Lreg:   addiu $t2, $t2, 1
        addiu $t0, $t0, -1
        bne   $t0, $zero, Lreg
        la    $t1, A
        lw    $t3, 0($t1)
        addu  $t2, $t2, $t3
        la    $t4, B
        sw    $t2, 0($t4)
        lw    $v0, 0($t4)
        sys   1
        sys   0
`

// epochRaceProgram runs several spawn epochs, each exposing the same
// unsynchronized write/read pair, so the full-run xmtsan report has one
// line per epoch and a chopped run must reproduce it segment by segment.
const epochRaceProgram = `
int x = 0;
int sink = 0;
int main() {
    int i;
    for (i = 0; i < 8; i++) {
        spawn(0, 1) {
            if ($ == 0) {
                x = x + 1;
            } else {
                sink = sink + x;
            }
        }
    }
    print_int(sink);
    return 0;
}
`

var built struct {
	sync.Mutex
	progs map[string]*xmtgo.Program
}

// program returns the corpus program name, built once per test binary.
func program(t *testing.T, name string) (corpusProg, *xmtgo.Program) {
	t.Helper()
	p, ok := corpus()[name]
	if !ok {
		t.Fatalf("no corpus program %q", name)
	}
	built.Lock()
	defer built.Unlock()
	if prog := built.progs[name]; prog != nil {
		return p, prog
	}
	var prog *xmtgo.Program
	var err error
	if p.asm {
		prog, err = xmtgo.Assemble(name+".s", p.src, p.memmaps...)
	} else {
		prog, _, err = xmtgo.Build(name+".c", p.src, xmtgo.DefaultCompileOptions(), p.memmaps...)
	}
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if built.progs == nil {
		built.progs = map[string]*xmtgo.Program{}
	}
	built.progs[name] = prog
	return p, prog
}

// preset is the config axis: the two built-in machines, fpga64 with the
// asynchronous interconnect (the continuous-time package path), and a wide
// fpga64 of two 128-TCU clusters, whose issue-side sets (running, stalled,
// shared-unit waiters, the stall calendar) span two words.
func preset(name string) xmtgo.Config {
	cfg := xmtgo.ConfigFPGA64()
	switch name {
	case "chip1024":
		cfg = xmtgo.ConfigChip1024()
	case "async":
		cfg.ICNAsync = true
	case "wide":
		cfg.Clusters, cfg.TCUsPerCluster = 2, 128
	}
	return cfg
}

// observers is an observer set. The interval sampler is on whenever a case
// has a sampling interval, and xmtsan whenever its config has RaceCheck.
type observers uint

const (
	obsEvents  observers = 1 << iota // event log: the Chrome trace
	obsProfile                       // line profile: the cycle profile
	obsFilter                        // unitFilter, a filter plug-in
	obsDVFS                          // dvfs, an activity plug-in
	obsThermal                       // the power/thermal DVFS manager, also feeding the sampler
)

// thermalC is the obsThermal manager's throttle threshold: low enough that
// the telemetry gate's program crosses it.
const thermalC = 45.1

// unitFilter is a filter plug-in counting its Instr callbacks by unit.
type unitFilter struct{ master, tcu [isa.NumUnits]uint64 }

func (f *unitFilter) Name() string { return "units" }
func (f *unitFilter) Instr(op isa.Op, master bool) {
	if master {
		f.master[op.Meta().Unit]++
	} else {
		f.tcu[op.Meta().Unit]++
	}
}
func (f *unitFilter) Mem(uint32, isa.Op, int, bool) {}
func (f *unitFilter) Report(io.Writer)              {}

// dvfs is an activity plug-in that drives the Control API every 50
// cycles, in turn: it halves the cluster clock, gates the interconnect
// off, then turns it back on and restores the cluster clock.
type dvfs struct {
	n      int
	period int64
}

func (*dvfs) Name() string          { return "dvfs" }
func (*dvfs) IntervalCycles() int64 { return 50 }
func (d *dvfs) Sample(_ *cycle.Snapshot, ctl *cycle.Control) {
	var err error
	switch d.n++; d.n % 3 {
	case 1:
		if d.period, err = ctl.Period("cluster"); err == nil {
			err = ctl.SetPeriod("cluster", 2*d.period)
		}
	case 2:
		err = ctl.Disable("icn")
	case 0:
		if err = ctl.Enable("icn"); err == nil {
			err = ctl.SetPeriod("cluster", d.period)
		}
	}
	if err != nil {
		panic(err)
	}
}

// mcase is one run of the matrix.
type mcase struct {
	name   string // the gate's subtest label
	id     string // appended to the test name to name the run
	prog   string // corpus program
	cfg    xmtgo.Config
	obs    observers
	every  int64             // sampling interval in cycles; 0 attaches no sampler
	budget int64             // Run's cycle budget
	period int64             // checkpoint period in cycles; 0 runs one segment
	resume *xmtgo.Checkpoint // state the first segment starts from
}

func (c mcase) workers(n int) mcase {
	c.cfg.HostWorkers = n
	c.id += fmt.Sprintf("/workers=%d", n)
	return c
}

func (c mcase) engine(lookahead int, mode string) mcase {
	c.cfg.Lookahead, c.cfg.EngineMode = lookahead, mode
	c.id += fmt.Sprintf("/lookahead=%d/%s", lookahead, mode)
	return c
}

// modes is the engine-mode axis; the optimistic mode free-runs and rolls
// back on overrun.
var modes = []string{xmtgo.EngineWindowed, xmtgo.EngineOptimistic}

type enginePoint struct {
	lookahead int
	mode      string
}

// engines is the engine axis of the window gates: lookahead 1 makes every
// window one cycle (the reference), 3 forces windows that never align with
// the derived width, and every mode runs at the derived window (lookahead
// 0: the minimum cross-cluster latency).
func engines() []enginePoint {
	es := []enginePoint{{1, xmtgo.EngineWindowed}, {3, xmtgo.EngineWindowed}}
	for _, m := range modes {
		es = append(es, enginePoint{0, m})
	}
	return es
}

// artifacts names a bundle's artifacts. A checkpoint segment's renderings
// (counters through filter) are appended segment after segment, the race
// report is stitched as if from one run, and the rest is the final
// segment's state.
var artifacts = []string{
	"result", "error", "output", "memory", "gregs", "master", "stats",
	"counters", "counters.json", "samples.jsonl", "samples.csv", "metrics.prom",
	"thermal", "trace.json", "profile", "filter", "race", "windows", "executed",
}

// archState is the architectural state a resumed run must reach.
var archState = []string{"output", "memory", "gregs", "master"}

// sameResumed fails t unless got, a resumed run, reached the architectural
// state of the uninterrupted run want (plus the artifacts extra) and
// reports its instruction total. Cycle counts are not compared: a
// checkpoint holds no micro-architectural state, so resumed segments
// replay with cold caches and drift by a few cycles.
func sameResumed(t *testing.T, got, want *bundle, extra ...string) {
	t.Helper()
	same(t, got, want, append(archState, extra...)...)
	if got.res.Instrs != want.res.Instrs {
		t.Errorf("%s: %d instructions, the uninterrupted %s retired %d", got.id, got.res.Instrs, want.id, want.res.Instrs)
	}
}

// except returns every artifact but names.
func except(names ...string) []string {
	var out []string
	for _, a := range artifacts {
		if !slices.Contains(names, a) {
			out = append(out, a)
		}
	}
	return out
}

// bundle is one run's artifacts.
type bundle struct {
	id       string
	sys      *xmtgo.Simulator // the final segment's simulator, memory released
	res      xmtgo.SimResult
	err      error
	segments int
	ckpt     *xmtgo.Checkpoint // the last checkpoint taken, nil when none
	art      map[string]string
}

// runCase runs c, segment by segment when it has a checkpoint period
// (every checkpoint round-trips through the serialized format into a fresh
// simulator), renders its artifacts and, under -v, logs its manifest line.
func runCase(t *testing.T, c mcase) *bundle {
	t.Helper()
	p, prog := program(t, c.prog)
	b := &bundle{id: t.Name() + c.id, art: map[string]string{}}
	add := func(name, text string) { b.art[name] += text }
	// out is everything the program printed since it started, before the
	// checkpoint c resumes from too.
	var out bytes.Buffer
	if c.resume != nil {
		out.WriteString(c.resume.Output)
	}
	var races []string
	var checks uint64
	for st := c.resume; ; {
		sys, err := xmtgo.NewSimulator(prog, c.cfg, &out)
		if err != nil {
			t.Fatalf("%s: %v", b.id, err)
		}
		if st != nil {
			if err := sys.RestoreState(st); err != nil {
				t.Fatalf("%s: segment %d: restore: %v", b.id, b.segments, err)
			}
		}
		sys.CheckpointEvery(c.period)
		if c.obs&obsEvents != 0 {
			sys.SetEventLog(trace.NewEventLog())
		}
		var prof *stats.LineProfile
		if c.obs&obsProfile != 0 {
			prof = stats.NewLineProfile(prog, c.cfg.Clusters+1)
			prof.SetSource(p.src)
			sys.AttachProfile(prof)
		}
		f := &unitFilter{}
		if c.obs&obsFilter != 0 {
			sys.Stats.AddFilter(f)
		}
		if c.obs&obsDVFS != 0 {
			sys.AddActivityPlugin(&dvfs{})
		}
		var tm *xmtgo.ThermalManager
		if c.obs&obsThermal != 0 {
			if tm, err = xmtgo.NewThermalManager(&c.cfg, c.every, thermalC); err != nil {
				t.Fatal(err)
			}
			sys.AddActivityPlugin(tm)
		}
		smp := metrics.Attach(sys, c.every)
		if smp != nil && tm != nil {
			smp.AttachThermal(tm)
		}
		res, err := sys.Run(c.budget)
		b.sys, b.res, b.err = sys, *res, err
		b.segments++

		var ctr, cj bytes.Buffer
		sys.Stats.ReportCounters(&ctr)
		add("counters", ctr.String())
		snap := sys.Stats.Snapshot(res.Cycles, int64(res.Ticks))
		if err := snap.WriteJSON(&cj); err != nil {
			t.Fatal(err)
		}
		add("counters.json", cj.String())
		if smp != nil {
			smp.Finalize(res.Cycles, int64(res.Ticks), sys.Stats, sys.AliveTCUs())
			samples := smp.Samples()
			for _, s := range samples {
				if st != nil && s.Cycle <= sys.StartCycle() {
					t.Errorf("%s: segment %d: sample cycle %d not past the resume offset %d",
						b.id, b.segments, s.Cycle, sys.StartCycle())
				}
			}
			var jl, cs, pm bytes.Buffer
			if err := metrics.WriteJSONL(&jl, smp.Header(), samples); err != nil {
				t.Fatal(err)
			}
			if err := metrics.WriteCSV(&cs, samples); err != nil {
				t.Fatal(err)
			}
			metrics.RenderProm(&pm, &metrics.Published{
				Status: metrics.Status{
					Cycle: res.Cycles, Ticks: int64(res.Ticks), Instrs: res.Instrs,
					AliveTCUs: sys.AliveTCUs(), DecommissionedTCUs: sys.Stats.TCUsDecommissioned,
					FaultsInjected: snap.Faults.Injected, Done: true,
				},
				Counters: snap,
				Sample:   &samples[len(samples)-1],
			})
			add("samples.jsonl", jl.String())
			add("samples.csv", cs.String())
			add("metrics.prom", pm.String())
		}
		if c.obs&obsEvents != 0 {
			var tr bytes.Buffer
			if err := sys.EventLog().WriteChrome(&tr, sys.ChromeMeta()); err != nil {
				t.Fatalf("%s: write chrome trace: %v", b.id, err)
			}
			add("trace.json", tr.String())
		}
		if prof != nil {
			var pr bytes.Buffer
			prof.Report(&pr, 30)
			add("profile", pr.String())
		}
		if c.obs&obsFilter != 0 {
			add("filter", unitCounts(f.master, f.tcu))
		}
		if tm != nil {
			for _, h := range tm.History {
				add("thermal", fmt.Sprintf("%+v\n", h))
			}
		}
		if c.cfg.RaceCheck {
			for _, r := range sys.RaceDetector().Reports() {
				races = append(races, r.String()+"\n")
			}
			checks += sys.RaceDetector().Checks()
		}

		if err != nil || !res.Checkpoint {
			break
		}
		var buf bytes.Buffer
		if err := xmtgo.SaveCheckpoint(&buf, sys.Capture()); err != nil {
			t.Fatal(err)
		}
		sys.Release()
		if st, err = xmtgo.LoadCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		// The checkpoint is the resume point: it carries the program's
		// totals so far, not its last segment's.
		if st.Output != out.String() || st.InstrCount != res.Instrs {
			t.Errorf("%s: segment %d: checkpoint carries output %q and %d instructions; the run printed %q and retired %d",
				b.id, b.segments, st.Output, st.InstrCount, out.String(), res.Instrs)
		}
		b.ckpt = st
	}

	// The final segment's memory goes back to the pool once hashed: the
	// bundle keeps the simulator for its counters, not its memory.
	sys := b.sys
	add("memory", memorySum(sys.Machine.Mem))
	sys.Release()
	add("result", fmt.Sprintf("%+v", b.res))
	if b.err != nil {
		add("error", b.err.Error())
	}
	add("output", out.String())
	add("gregs", fmt.Sprint(sys.Machine.G))
	add("master", fmt.Sprintf("%+v", *sys.MasterContext()))
	js, err := json.Marshal(sys.Stats)
	if err != nil {
		t.Fatal(err)
	}
	add("stats", string(js))
	if c.cfg.RaceCheck {
		add("race", strings.Join(races, "")+
			fmt.Sprintf("xmtsan: %d race(s), %d word-access check(s)\n", len(races), checks))
	}
	add("windows", fmt.Sprint(sys.WindowStats()))
	add("executed", fmt.Sprint(sys.Sched.Executed))

	if testing.Verbose() {
		m := fmt.Sprintf("manifest %s cycles=%d sched.executed=%d time=%d", b.id, b.res.Cycles, sys.Sched.Executed, sys.Sched.Now())
		for _, a := range artifacts {
			m += fmt.Sprintf(" %s=%x", a, sha256.Sum256([]byte(b.art[a])))
		}
		t.Log(m)
	}
	return b
}

var zeroPage [4096]byte

// memorySum hashes the nonzero 4 KiB pages of mem with their offsets,
// sparing the mostly empty 16–64 MB memories a full pass.
func memorySum(mem []byte) string {
	h := sha256.New()
	for off := 0; off < len(mem); off += len(zeroPage) {
		if p := mem[off:min(off+len(zeroPage), len(mem))]; !bytes.Equal(p, zeroPage[:len(p)]) {
			fmt.Fprintf(h, "%x:", off)
			h.Write(p)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func unitCounts(master, tcu [isa.NumUnits]uint64) string {
	return fmt.Sprintf("master=%v tcu=%v", master, tcu)
}

// same fails t for each artifact of names — every artifact when names is
// empty — on which got differs from want, naming it.
func same(t *testing.T, got, want *bundle, names ...string) {
	t.Helper()
	if len(names) == 0 {
		names = artifacts
	}
	for _, n := range names {
		g, w := got.art[n], want.art[n]
		if g == w {
			continue
		}
		if len(g)+len(w) > 600 {
			g, w = fmt.Sprintf("(%d bytes)", len(g)), fmt.Sprintf("(%d bytes)", len(w))
		}
		t.Errorf("%s: %s differs from %s:\n%s\nvs\n%s", got.id, n, want.id, g, w)
	}
}

// halted fails t unless b's run halted without an error.
func halted(t *testing.T, b *bundle) *bundle {
	t.Helper()
	if b.err != nil || !b.res.Halted {
		t.Fatalf("%s did not halt: %+v err=%v", b.id, b.res, b.err)
	}
	return b
}

// resumed runs c chopped into checkpoint segments of period cycles and
// requires it to halt after at least one resume.
func resumed(t *testing.T, c mcase, period int64) *bundle {
	t.Helper()
	c.period, c.id = period, c.id+"/resumed"
	b := halted(t, runCase(t, c))
	if b.segments < 2 {
		t.Fatalf("%s never hit a periodic checkpoint; resume untested", b.id)
	}
	return b
}

// pick is a case of the determinism and window gates: corpus program prog
// (name when empty) on preset p, run as subtest name under a 2M-cycle
// budget.
func pick(name, prog, p string) mcase {
	return mcase{name: name, prog: cmp.Or(prog, name), cfg: preset(p), budget: 2_000_000}
}

// determinismSet is the corpus of the host-parallel and observer gates.
func determinismSet() []mcase {
	// Re-clocked clusters and a gated interconnect mid-run.
	dvfs := pick("vecadd-dvfs", "vecadd-par", "")
	dvfs.obs = obsDVFS
	return []mcase{
		pick("tableI-Parallel, memory intensive", "", ""),
		pick("tableI-Parallel, computation intensive", "", ""),
		pick("tableI-Serial, memory intensive", "", ""),
		pick("tableI-Serial, computation intensive", "", ""),
		pick("compaction", "", ""),
		pick("reduction", "reduction-par", ""),
		pick("vecadd", "vecadd-par", ""),
		pick("matmul", "matmul-par", ""),
		pick("prefixsum", "prefixsum-par", ""),
		pick("bfs", "bfs-par", ""),
		pick("vecadd-asyncICN", "vecadd-par", "async"),
		pick("tableI-parmem-chip1024", "", "chip1024"),
		pick("tableI-parmem-wide-clusters", "", "wide"),
		dvfs,
	}
}

// lookaheadSet is the corpus of the window gate: the two parallel Table I
// groups stress the cache/ICN request loop (short windows, frequent
// truncation), compaction adds data-dependent ps traffic, chip1024 commits
// windows across 64 sharded clusters, and the wide clusters walk
// multi-word issue-side sets inside a window.
func lookaheadSet() []mcase {
	return []mcase{
		pick("tableI-parmem", "tableI-Parallel, memory intensive", ""),
		pick("tableI-parcomp", "tableI-Parallel, computation intensive", ""),
		pick("compaction", "", ""),
		pick("parmem-chip1024", "tableI-parmem-chip1024", "chip1024"),
		pick("tableI-parmem-wide-clusters", "", "wide"),
	}
}

// TestHostParallelDeterminism: the cycle-accurate simulator produces
// bit-identical artifacts whatever number of host workers ticks the
// cluster shards, so -workers is a pure host-speed choice. scripts/check.sh
// runs it under -race, which also proves the compute phase free of
// shared-state races.
func TestHostParallelDeterminism(t *testing.T) {
	for _, c := range determinismSet() {
		t.Run(c.name, func(t *testing.T) {
			c.cfg.RaceCheck, c.obs, c.every = true, c.obs|obsEvents, 500
			ref := halted(t, runCase(t, c.workers(1)))
			// 2 and 3 shard unevenly across 64/8 clusters; 4 evenly.
			for _, w := range []int{2, 3, 4} {
				same(t, runCase(t, c.workers(w)), ref)
			}
		})
	}
}

// TestObserverDoesNotPerturb holds the issue-side shortcuts of an
// unobserved cluster — shared-unit waiters accounted without a visit — to
// the observed run, which visits every retry: the event log is the only
// difference between the two runs, and it must not change what executes.
func TestObserverDoesNotPerturb(t *testing.T) {
	for _, c := range determinismSet() {
		t.Run(c.name, func(t *testing.T) {
			plain := runCase(t, c)
			c.obs, c.id = c.obs|obsEvents, "/observed"
			same(t, runCase(t, c), plain, except("trace.json")...)
		})
	}
}

// TestLookaheadDeterminism: the bounded-lookahead engine is architecturally
// invisible. Every artifact matches the single-cycle run at every engine
// point and worker count; the cut into windows depends on the lookahead,
// never on the worker count.
func TestLookaheadDeterminism(t *testing.T) {
	for _, c := range lookaheadSet() {
		t.Run(c.name, func(t *testing.T) {
			c.cfg.RaceCheck, c.obs, c.every = true, obsEvents, 500
			var ref *bundle
			for _, e := range engines() {
				var one *bundle
				for _, w := range []int{1, 2, 4} {
					b := runCase(t, c.engine(e.lookahead, e.mode).workers(w))
					if ref == nil {
						ref = halted(t, b)
					}
					if one == nil {
						one = b
					}
					same(t, b, one, "windows", "executed")
					same(t, b, ref, except("windows", "executed")...)
				}
			}
		})
	}
}

// TestStopMidWindow pins what a run that a TCU stops leaves counted. A
// stop inside a window keeps the issues committed before the stopping
// record and drops the ones after it: later in the same cluster-cycle, in
// later clusters of that cycle, or in later cycles of the window. Every
// engine variant and worker count must count the same, with and without a
// filter plug-in attached, and a filter must be fed exactly what counted.
// The pinned values (units ALU SFT BR MDU FPU MEM PS CTL) were recorded
// before counting moved to issue time.
func TestStopMidWindow(t *testing.T) {
	const divErr = `runtime error at instruction 25 (asm line 30, "div $t8, $t3, $zero"): integer division by zero`
	for _, tc := range []struct{ prog, preset, want string }{
		{"stop-div", "fpga64",
			"cycles=497 instrs=7289 halted=false master=7 tcu=[3227 1095 1243 935 169 168 224 221] err=" + divErr},
		{"stop-div", "chip1024",
			"cycles=158 instrs=29176 halted=false master=7 tcu=[12972 4240 4255 3745 648 604 1369 1336] err=" + divErr},
		{"stop-halt", "fpga64",
			"cycles=486 instrs=7127 halted=true master=7 tcu=[3154 1070 1215 914 166 163 221 217] err=<nil>"},
		{"stop-halt", "chip1024",
			"cycles=156 instrs=28697 halted=true master=7 tcu=[12776 4164 4161 3688 632 580 1360 1329] err=<nil>"},
	} {
		c := mcase{id: "/" + tc.prog + "/" + tc.preset, prog: tc.prog, cfg: preset(tc.preset), budget: 1_000_000}
		var first *bundle
		for _, la := range []int{1, 3, 0} {
			for _, w := range []int{1, 2} {
				for _, mode := range modes {
					for _, obs := range []observers{0, obsFilter} {
						c := c.engine(la, mode).workers(w)
						c.obs = obs
						b := runCase(t, c)
						st := b.sys.Stats
						var tcu [isa.NumUnits]uint64
						for i := range st.Cluster {
							for u, n := range st.Cluster[i].ByUnit {
								tcu[u] += n
							}
						}
						got := fmt.Sprintf("cycles=%d instrs=%d halted=%v master=%d tcu=%v err=%v",
							b.res.Cycles, b.res.Instrs, b.res.Halted, st.MasterInstrs, tcu, b.err)
						if got != tc.want {
							t.Errorf("%s:\n got %s\nwant %s", b.id, got, tc.want)
						}
						if want := unitCounts(st.MasterByUnit, tcu); obs != 0 && b.art["filter"] != want {
							t.Errorf("%s: filter saw %s, counters %s", b.id, b.art["filter"], want)
						}
						if first == nil {
							first = b
						}
						same(t, b, first, except("windows", "executed", "filter")...)
					}
				}
			}
		}
	}
}

// TestLookaheadCheckpointResume chops a run into periodic-checkpoint
// segments whose period is odd while fpga64's derived window is even, so
// stops land mid-window, and requires the resumed runs to reach the state
// of an uninterrupted single-cycle run.
func TestLookaheadCheckpointResume(t *testing.T) {
	c := mcase{prog: "reduction-par", cfg: preset(""), budget: 10_000_000}
	ref := halted(t, runCase(t, c.engine(1, xmtgo.EngineWindowed)))
	for _, mode := range modes {
		name := mode
		if mode == xmtgo.EngineWindowed {
			name = "window-derived"
		}
		t.Run(name, func(t *testing.T) {
			sameResumed(t, resumed(t, c.engine(0, mode), ref.res.Cycles/5|1), ref)
		})
	}
}

// TestCycleCheckpointResume: a run chopped into checkpoint segments, each
// resumed into a fresh simulator from the serialized state, ends in the
// architectural state of an uninterrupted run. (Cycle counts legitimately
// drift: a checkpoint holds only architectural state, so resumed segments
// replay with cold caches.)
func TestCycleCheckpointResume(t *testing.T) {
	for _, prog := range []string{"reduction", "prefixsum"} {
		for _, w := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", prog, w), func(t *testing.T) {
				c := mcase{prog: prog + "-par", cfg: preset(""), budget: 10_000_000}
				c.cfg.HostWorkers = w
				ref := halted(t, runCase(t, c))
				sameResumed(t, resumed(t, c, ref.res.Cycles/5), ref)
			})
		}
	}
}

// TestXmtsanCheckpointResume: checkpoints fall between spawn epochs (the
// master only stops at quiescent serial points) and the sanitizer's state
// is epoch-local, so the per-segment xmtsan reports of a chopped run
// concatenate to the full run's, and their check counts add up to its.
func TestXmtsanCheckpointResume(t *testing.T) {
	c := mcase{prog: "epoch-race", cfg: preset(""), budget: 10_000_000}
	c.cfg.RaceCheck = true
	ref := halted(t, runCase(t, c))
	if !strings.HasPrefix(ref.art["race"], "race:") {
		t.Fatal("checkpoint fixture produced no races; the contract is untested")
	}
	sameResumed(t, resumed(t, c, ref.res.Cycles/4), ref, "race")
}

// TestTelemetryDeterminism: the interval-sample JSONL/CSV streams, the
// counter snapshot and the Prometheus text are byte-identical for any host
// worker count, also while TCU failures decommission units mid-run, and
// while the thermal manager throttles the cluster clock and the samples
// carry its power block.
func TestTelemetryDeterminism(t *testing.T) {
	for _, v := range []struct {
		name, plan, want string
		obs              observers
	}{
		{"clean", "", "", 0},
		{"faulty", "tcufail:4@50-400;memflip:2@50-400", `"decommissioned_tcus":4`, 0},
		{"thermal", "", `"throttled":true`, obsThermal},
	} {
		t.Run(v.name, func(t *testing.T) {
			c := mcase{prog: "tableI-Parallel, memory intensive", cfg: preset(""), obs: v.obs, every: 300, budget: 2_000_000}
			c.cfg.FaultPlan, c.cfg.FaultSeed = v.plan, 7
			ref := halted(t, runCase(t, c.workers(1)))
			jsonl := ref.art["samples.jsonl"]
			if strings.Count(jsonl, "\n") < 3 || !strings.Contains(jsonl, v.want) {
				t.Fatalf("want a multi-window time series with %q, got:\n%s", v.want, jsonl)
			}
			for _, w := range []int{2, 4} {
				same(t, runCase(t, c.workers(w)), ref)
			}
		})
	}
}

// TestTelemetryCheckpointResume: each resumed segment's sampler continues
// the absolute cycle axis (runCase checks every sample lies past the resume
// offset), and the stitched streams are deterministic across host worker
// counts.
func TestTelemetryCheckpointResume(t *testing.T) {
	c := mcase{prog: "reduction-par", cfg: preset(""), budget: 2_000_000}
	period := halted(t, runCase(t, c)).res.Cycles / 3
	c.every = 200
	ref := resumed(t, c.workers(1), period)
	for _, w := range []int{2, 4} {
		same(t, resumed(t, c.workers(w), period), ref)
	}
}

// chaosPlan mixes every fault kind, including state-corrupting flips and a
// permanent TCU failure, inside a window every soak workload crosses.
const chaosPlan = "memflip:2@50-400;regflip:1@50-400;icndelay:2@50-400;icndup:1@50-400;icndrop:1@50-400;cachestall:1x100@50-400;tcufail:1@50-400"

// TestChaosSoak is the seeded fault-injection matrix (docs/ROBUSTNESS.md):
// 3 workloads × 3 seeds × host_workers {1,4}; every artifact — output, halt
// state, cycle count, error text, counters — is byte-identical per
// (workload, seed) across worker counts, even when the injected corruption
// crashes or derails the program.
func TestChaosSoak(t *testing.T) {
	for _, prog := range []string{"compaction", "reduction-par", "vecadd-par"} {
		for _, seed := range []uint64{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/seed=%d", strings.TrimSuffix(prog, "-par"), seed), func(t *testing.T) {
				c := mcase{prog: prog, cfg: preset(""), budget: 2_000_000}
				c.cfg.FaultPlan, c.cfg.FaultSeed, c.cfg.WatchdogCycles = chaosPlan, seed, 200_000
				same(t, runCase(t, c.workers(4)), runCase(t, c.workers(1)))
			})
		}
	}
}

// TestWatchdogTripResumeFromCheckpoint is the recovery loop of the xmtd
// core, which xmtbatch runs its jobs on: the no-retire watchdog turns a
// wedge into a diagnostic, and the last periodic checkpoint turns the
// diagnostic into a retry, under a roomier window (the core widens it by
// the backoff), that ends in the state of an uninterrupted run.
func TestWatchdogTripResumeFromCheckpoint(t *testing.T) {
	c := mcase{prog: "watchdog", cfg: preset(""), budget: 10_000_000}
	c.cfg.DRAMLatency = 8000 // every DRAM access out-stalls the tight window
	c.cfg.WatchdogCycles = 1_000_000
	ref := halted(t, runCase(t, c))

	tight := c
	tight.cfg.WatchdogCycles, tight.period, tight.id = 2000, 10_000, "/tight"
	wedged := runCase(t, tight)
	if wedged.err == nil || !strings.Contains(wedged.err.Error(), "watchdog") {
		t.Fatalf("tight run ended %+v with %v, want a watchdog diagnostic", wedged.res, wedged.err)
	}
	if wedged.ckpt == nil {
		t.Fatal("watchdog tripped before any checkpoint was captured; recovery untested")
	}
	c.resume, c.id = wedged.ckpt, "/recovered"
	sameResumed(t, halted(t, runCase(t, c)), ref)
}

// TestObservabilityGolden compares the observability renderings of
// testdata/observability/fixture.c — Chrome trace, counter report, cycle
// profile, counters JSON, sample JSONL, Prometheus text — byte for byte
// against checked-in files; the run at 4 host workers must match the one
// at 1 in every artifact.
func TestObservabilityGolden(t *testing.T) {
	c := mcase{prog: "fixture", cfg: preset(""), obs: obsEvents | obsProfile, every: 200, budget: 1_000_000}
	ref := halted(t, runCase(t, c.workers(1)))
	if got, want := ref.art["output"], "sum=272 done=16\n"; got != want {
		t.Fatalf("fixture output %q, want %q", got, want)
	}
	same(t, runCase(t, c.workers(4)), ref)
	for _, a := range []string{"trace.json", "counters", "profile", "counters.json", "samples.jsonl", "metrics.prom"} {
		path := filepath.Join("testdata", "observability", a+".golden")
		if *update {
			if err := os.WriteFile(path, []byte(ref.art[a]), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (run with -update): %v", err)
		}
		if ref.art[a] != string(want) {
			t.Errorf("%s diverged from golden (%d vs %d bytes); if the change is deliberate, re-bless with -update",
				a, len(ref.art[a]), len(want))
		}
	}
}

// compileToggles are the compiler switches TestCompileToggles holds to the
// default compile, named as xmtcc spells them.
var compileToggles = []struct {
	name string
	set  func(*xmtgo.CompileOptions)
}{
	{"default", func(*xmtgo.CompileOptions) {}},
	{"O0", func(o *xmtgo.CompileOptions) { o.OptLevel = 0 }},
	{"no-nbstore", func(o *xmtgo.CompileOptions) { o.NoNBStore = true }},
	{"no-prefetch", func(o *xmtgo.CompileOptions) { o.NoPrefetch = true }},
	{"prefetch-slots=1", func(o *xmtgo.CompileOptions) { o.PrefetchSlots = 1 }},
	{"cluster=2", func(o *xmtgo.CompileOptions) { o.ClusterFactor = 2 }},
	{"cluster=5", func(o *xmtgo.CompileOptions) { o.ClusterFactor = 5 }},
	{"scramble-layout", func(o *xmtgo.CompileOptions) { o.ScrambleLayout = true }},
}

// TestCompileToggles is the compiler's metamorphic gate: every toggle of
// compileToggles must leave each program's functional output, and every
// named global in memory, as the default compile leaves them (output only
// for skipMem programs). The programs are the conformance corpus, the
// examples/xmtc fixtures and the observability fixture; a program the
// default compile rejects must be rejected alike, and one whose default
// run does not halt within the budget (a spin-wait catalog) must not halt
// either. Under -v each (program, toggle) logs a manifest line: cycles= is
// the functional instruction count, and the artifacts hash the assembly,
// the pre-pass source and the diagnostics of a compile with the analyzer
// on (the error, when the compile fails), so `sh scripts/ab.sh REV
// TestCompileToggles` diffs the compiler itself across commits.
func TestCompileToggles(t *testing.T) {
	progs := conformanceCorpus()
	examples, _ := filepath.Glob(filepath.Join("examples", "xmtc", "*.c"))
	for _, path := range append(examples, filepath.Join("testdata", "observability", "fixture.c")) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, corpusProg{name: strings.TrimSuffix(filepath.Base(path), ".c"), src: string(src)})
	}
	for _, p := range progs {
		t.Run(p.name, func(t *testing.T) {
			var ref compiled
			for _, tg := range compileToggles {
				id := t.Name() + "/" + tg.name
				opts := xmtgo.DefaultCompileOptions()
				opts.Analyze = true
				opts.DumpPrepass = true
				tg.set(&opts)
				c := compileAndRun(t, p, opts)
				if testing.Verbose() {
					t.Logf("manifest %s cycles=%d sched.executed=0 time=0 asm=%x prepass=%x diagnostics=%x",
						id, c.instrs, sha256.Sum256([]byte(c.asm)), sha256.Sum256([]byte(c.prepass)), sha256.Sum256([]byte(c.diags)))
				}
				switch {
				case tg.name == "default":
					ref = c
				case (c.err == "") != (ref.err == "") || c.halted != ref.halted:
					t.Errorf("%s: error %q halted %v, default: error %q halted %v", id, c.err, c.halted, ref.err, ref.halted)
				case c.err != "" || !c.halted: // rejected or still running, like the default
				case c.out != ref.out:
					t.Errorf("%s: output %q, default %q", id, c.out, ref.out)
				case !p.skipMem && c.globals != ref.globals:
					t.Errorf("%s: globals differ from the default's:\n%s\nvs\n%s", id, c.globals, ref.globals)
				}
			}
		})
	}
}

// compiled is one compile of a program and its functional run.
type compiled struct {
	asm, prepass, diags string // the compile's artifacts
	err                 string // the compile error, if any
	instrs              uint64
	halted              bool
	out, globals        string
}

// compileAndRun compiles p with opts and runs it in functional mode under
// a 5M-instruction budget (the longest halting program takes 130 K).
func compileAndRun(t *testing.T, p corpusProg, opts xmtgo.CompileOptions) compiled {
	t.Helper()
	var c compiled
	prog, res, err := xmtgo.Build(p.name+".c", p.src, opts, p.memmaps...)
	if err != nil {
		c.err, c.diags = err.Error(), err.Error()
		return c
	}
	c.asm, c.prepass = xmtgo.PrintUnit(res.Unit), res.PrepassSource
	var diags strings.Builder
	for _, d := range append(res.Warnings, res.Diagnostics...) {
		fmt.Fprintln(&diags, d)
	}
	c.diags = diags.String()
	var out bytes.Buffer
	m, err := xmtgo.NewMachine(prog, preset(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	defer m.ReleaseMemory()
	vm, err := xmtgo.NewFuncVM(m)
	if err != nil {
		t.Fatal(err)
	}
	_ = vm.Run(5_000_000) // a runtime error or the budget leaves it not halted, which is compared
	c.instrs, c.halted, c.out = m.InstrCount, m.Halted, out.String()
	c.globals = namedGlobals(prog, m.Mem)
	return c
}

// namedGlobals renders the final value of every data symbol of prog, by
// name; a symbol spans the bytes up to the next one.
func namedGlobals(prog *xmtgo.Program, mem []byte) string {
	type global struct {
		name string
		addr uint32
	}
	var gs []global
	for name := range prog.Syms {
		if addr, ok := prog.SymAddr(name); ok {
			gs = append(gs, global{name, addr})
		}
	}
	slices.SortFunc(gs, func(a, b global) int { return cmp.Or(cmp.Compare(a.addr, b.addr), strings.Compare(a.name, b.name)) })
	var s strings.Builder
	for i, g := range gs {
		end := prog.DataEnd
		if i+1 < len(gs) {
			end = gs[i+1].addr
		}
		fmt.Fprintf(&s, "%s=%x\n", g.name, mem[g.addr:end])
	}
	return s.String()
}
