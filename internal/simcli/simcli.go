// Package simcli is the simulator front end of Fig. 3 shared by xmtsim and
// xmtrun: given a tool that can turn its argument into a linked program, it
// registers the simulator's flags, resolves them into a config.Config, runs
// the program cycle-accurately or functionally, and writes the outputs the
// flags ask for (statistics, traces, dumps, checkpoints, telemetry). The
// flag reference is docs/SIMULATOR.md §Command-line flags.
package simcli

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"sync/atomic"

	"xmtgo/internal/asm"
	"xmtgo/internal/config"
	"xmtgo/internal/diag"
	"xmtgo/internal/floorplan"
	"xmtgo/internal/prof"
	"xmtgo/internal/sigctl"
	"xmtgo/internal/sim/checkpoint"
	"xmtgo/internal/sim/cycle"
	"xmtgo/internal/sim/funcmodel"
	"xmtgo/internal/sim/funcvm"
	"xmtgo/internal/sim/metrics"
	"xmtgo/internal/sim/power"
	"xmtgo/internal/sim/stats"
	"xmtgo/internal/sim/trace"
)

// Tool is what differs between the front ends: a name, the kind of file it
// takes, flags of its own, and how that file becomes a program.
type Tool struct {
	Name string // error prefix and usage line, e.g. "xmtsim"
	Arg  string // the positional argument in the usage line, e.g. "program.s"
	// Flags registers the tool's own flags beside the simulator's (nil: none).
	Flags func(*flag.FlagSet)
	// Check, when set, validates the tool's own flags once they are parsed;
	// an error is a usage error (exit 2).
	Check func() error
	// Load turns the argument file into a linked program; it runs after the
	// flags are parsed. Warnings are printed, an error ends the run.
	Load func(file, src string) (*asm.Program, []diag.Diagnostic, error)
}

type listFlag []string

func (l *listFlag) String() string     { return strings.Join(*l, ",") }
func (l *listFlag) Set(v string) error { *l = append(*l, v); return nil }

// exitCode carries the exit status out of fatal; Main recovers it, so the
// deferred profile and signal clean-up runs and tests can drive a tool
// in-process.
type exitCode int

type driver struct {
	tool           string
	stdout, stderr io.Writer

	cfgName, cfgFile, mode, backend       string
	maxCycles                             int64
	showStats, hot, histogram             bool
	counters, profile, thermal, floorplan bool
	describe, raceCheck                   bool
	trace, traceOp                        string
	traceTCU                              int
	ckptOut, ckptIn                       string
	workers                               int
	faultPlan                             string
	faultSeed                             uint64
	watchdog, sampleCycles                int64
	cpuProf, memProf                      string
	samplesOut, countersJSON, serveAddr   string
	dumps, sets, memmaps                  listFlag
}

func (d *driver) register(fs *flag.FlagSet) {
	fs.StringVar(&d.cfgName, "config", "fpga64", "machine preset: fpga64 or chip1024")
	fs.StringVar(&d.cfgFile, "config-file", "", "key=value configuration file")
	fs.StringVar(&d.mode, "mode", "cycle", "simulation mode: cycle or func")
	fs.StringVar(&d.backend, "backend", "", "functional-mode backend: vm or interp (default: config func_backend, which the presets set to vm)")
	fs.Int64Var(&d.maxCycles, "max-cycles", 0, "stop after this many cycles (0 = unlimited)")
	fs.BoolVar(&d.showStats, "stats", false, "print instruction and activity counters")
	fs.BoolVar(&d.hot, "hot", false, "enable the hottest-memory-locations filter plug-in")
	fs.BoolVar(&d.histogram, "histogram", false, "enable the opcode-histogram filter plug-in")
	fs.StringVar(&d.trace, "trace", "", "execution trace: func, cycle, or a .json path (Chrome trace for Perfetto)")
	fs.BoolVar(&d.counters, "counters", false, "print the hardware performance counter report")
	fs.BoolVar(&d.profile, "profile", false, "print the cycle profile (flat by source line + cumulative by function)")
	fs.IntVar(&d.traceTCU, "trace-tcu", math.MinInt, "limit trace to one TCU (-1 = master)")
	fs.StringVar(&d.traceOp, "trace-op", "", "limit trace to one mnemonic")
	fs.StringVar(&d.ckptOut, "checkpoint", "", "write a checkpoint here when the program requests one")
	fs.StringVar(&d.ckptIn, "resume", "", "resume from this checkpoint file")
	fs.BoolVar(&d.thermal, "thermal", false, "attach the power/thermal DVFS manager plug-in")
	fs.BoolVar(&d.floorplan, "floorplan", false, "render the cluster floorplan at exit (activity or temperature)")
	fs.BoolVar(&d.describe, "describe", false, "print the machine configuration and exit")
	fs.IntVar(&d.workers, "workers", 0, config.HostWorkersUsage)
	fs.StringVar(&d.faultPlan, "fault", "", `fault-injection plan, e.g. "memflip:10;tcufail:2@5000-90000" (docs/ROBUSTNESS.md)`)
	fs.Uint64Var(&d.faultSeed, "fault-seed", 0, "fault plan seed (0 = keep the preset's fault_seed)")
	fs.Int64Var(&d.watchdog, "watchdog", -1, "no-progress watchdog window in cluster cycles (0 disables; -1 = keep the preset's watchdog_cycles)")
	fs.StringVar(&d.cpuProf, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&d.memProf, "memprofile", "", "write a heap profile to this file at exit")
	fs.BoolVar(&d.raceCheck, "race-check", false, "enable xmtsan, the deterministic dynamic race sanitizer (cycle mode; report on stderr)")
	fs.Int64Var(&d.sampleCycles, "sample-cycles", -1, "interval-sampler period in cluster cycles (0 disables; -1 = keep the preset's sample_cycles)")
	fs.StringVar(&d.samplesOut, "samples", "", "write the interval-sample time series here (.jsonl or .csv; needs a sampling interval)")
	fs.StringVar(&d.countersJSON, "counters-json", "", "write the machine-readable counter snapshot (xmt-counters/v1 JSON) to this file")
	fs.StringVar(&d.serveAddr, "serve", "", "serve live metrics on this address while running (/metrics, /status, /stream)")
	fs.Var(&d.dumps, "dump", "memory dump at exit: symbol or symbol:words (repeatable)")
	fs.Var(&d.sets, "set", "override one configuration key=value (repeatable)")
	fs.Var(&d.memmaps, "mem", "memory-map input file (repeatable)")
}

// Main runs one invocation of the tool and returns its exit status.
func Main(t Tool, args []string, stdout, stderr io.Writer) (code int) {
	d := &driver{tool: t.Name, stdout: stdout, stderr: stderr}
	defer func() {
		if r := recover(); r != nil {
			c, ok := r.(exitCode)
			if !ok {
				panic(r)
			}
			code = int(c)
		}
	}()
	fs := flag.NewFlagSet(t.Name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	d.register(fs)
	if t.Flags != nil {
		t.Flags(fs)
	}
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if t.Check != nil {
		if err := t.Check(); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", t.Name, err)
			return 2
		}
	}
	cfg := d.config()
	if d.describe {
		fmt.Fprint(stdout, cfg.Describe())
		return 0
	}
	if fs.NArg() != 1 {
		fmt.Fprintf(stderr, "usage: %s [flags] %s\n", t.Name, t.Arg)
		fs.Usage()
		return 2
	}

	stopProf, err := prof.Start(d.cpuProf, d.memProf)
	d.check(err)
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(stderr, "%s: profile: %v\n", t.Name, err)
		}
	}()

	src, err := os.ReadFile(fs.Arg(0))
	d.check(err)
	prog, warnings, err := t.Load(fs.Arg(0), string(src))
	for _, w := range warnings {
		fmt.Fprintln(stderr, w)
	}
	d.check(err)
	for _, mm := range d.memmaps {
		data, err := os.ReadFile(mm)
		d.check(err)
		d.check(asm.ApplyMemMap(prog, mm, string(data)))
	}
	var resume *checkpoint.State
	if d.ckptIn != "" {
		resume, err = checkpoint.LoadFile(d.ckptIn)
		d.check(err)
	}

	if d.mode == "func" {
		d.runFunctional(prog, cfg, resume)
	} else {
		d.runCycle(prog, string(src), cfg, resume)
	}
	return 0
}

// config resolves preset, configuration file, -set overrides and the
// flags that shadow a configuration key, in that order.
func (d *driver) config() config.Config {
	cfg, err := config.Preset(d.cfgName)
	d.check(err)
	if d.cfgFile != "" {
		src, err := os.ReadFile(d.cfgFile)
		d.check(err)
		d.check(cfg.Load(string(src)))
	}
	for _, kv := range d.sets {
		d.check(cfg.Set(kv))
	}
	if d.workers != 0 {
		cfg.HostWorkers = d.workers
	}
	if d.faultPlan != "" {
		cfg.FaultPlan = d.faultPlan
	}
	if d.faultSeed != 0 {
		cfg.FaultSeed = d.faultSeed
	}
	if d.watchdog >= 0 {
		cfg.WatchdogCycles = d.watchdog
	}
	if d.sampleCycles >= 0 {
		cfg.SampleCycles = d.sampleCycles
	}
	if d.raceCheck {
		cfg.RaceCheck = true
	}
	if d.backend != "" {
		d.check(cfg.Set("func_backend=" + d.backend))
	}
	return cfg
}

func (d *driver) runCycle(prog *asm.Program, src string, cfg config.Config, resume *checkpoint.State) {
	if d.backend != "" {
		d.fatal(fmt.Errorf("-backend applies to the functional mode (-mode func)"))
	}
	sys, err := cycle.New(prog, cfg, d.stdout)
	d.check(err)
	if resume != nil {
		d.check(sys.RestoreState(resume))
	}
	// First SIGINT/SIGTERM stops the run at the next architecturally
	// quiescent point; the epilogue below then persists the checkpoint when
	// -checkpoint was given, so an interrupted run can be resumed exactly.
	stopSig := sigctl.Notify(d.tool, sys.RequestCheckpoint)
	defer stopSig()
	if d.hot {
		sys.Stats.AddFilter(stats.NewHotLocations(uint32(cfg.CacheLineSize), 10))
	}
	if d.histogram {
		sys.Stats.AddFilter(&stats.OpHistogram{})
	}
	var tm *power.ThermalManager
	if d.thermal {
		tm, err = power.NewThermalManager(&cfg, 5000, 85)
		d.check(err)
		sys.AddActivityPlugin(tm)
	}
	traceJSON := strings.HasSuffix(d.trace, ".json")
	switch {
	case traceJSON:
		sys.SetEventLog(trace.NewEventLog())
	case d.trace != "":
		lvl := trace.LevelFunctional
		if d.trace == "cycle" {
			lvl = trace.LevelCycle
		}
		tr := trace.New(d.stderr, lvl)
		if d.traceTCU != math.MinInt {
			tr.LimitTCU(d.traceTCU)
		}
		if d.traceOp != "" {
			d.check(tr.LimitOp(d.traceOp))
		}
		sys.SetTrace(tr.CycleHook())
	}
	var lineProf *stats.LineProfile
	if d.profile {
		// Instruction line numbers point into the file the tool was given
		// (assembly for xmtsim, XMTC for xmtrun), so the flat report
		// annotates that file's lines.
		lineProf = stats.NewLineProfile(prog, cfg.Clusters+1)
		lineProf.SetSource(src)
		sys.AttachProfile(lineProf)
	}

	// The sampler attaches after RestoreState so resumed runs report
	// absolute cycles, and after the thermal manager so its plug-in event
	// runs later at each boundary and reads the already-advanced grid.
	sampleInterval := cfg.SampleCycles
	if d.serveAddr != "" && sampleInterval <= 0 {
		sampleInterval = metrics.DefaultSampleCycles // live serving needs a publish cadence
	}
	smp := metrics.Attach(sys, sampleInterval)
	if smp != nil && tm != nil {
		smp.AttachThermal(tm)
	}
	if d.samplesOut != "" && smp == nil {
		d.fatal(fmt.Errorf("-samples needs a sampling interval (-sample-cycles or sample_cycles)"))
	}
	if d.serveAddr != "" {
		msrv := metrics.NewServer()
		addr, err := msrv.ListenAndServe(d.serveAddr)
		d.check(err)
		fmt.Fprintf(d.stderr, "serving metrics on http://%s (/metrics /status /stream)\n", addr)
		smp.SetServer(msrv)
		defer msrv.Close()
	}

	res, err := sys.Run(d.maxCycles)
	d.check(err)
	if smp != nil {
		smp.Finalize(res.Cycles, int64(res.Ticks), sys.Stats, sys.AliveTCUs())
	}
	fmt.Fprintf(d.stderr, "\n=== %d cycles, %d instructions (%s) ===\n", res.Cycles, res.Instrs, endState(res))
	if res.Checkpoint && d.ckptOut != "" {
		d.check(checkpoint.SaveFile(d.ckptOut, sys.Capture()))
		fmt.Fprintf(d.stderr, "checkpoint written to %s (cycle %d)\n", d.ckptOut, res.Cycles)
	}
	if d.showStats {
		sys.Stats.Report(d.stderr)
	}
	if det := sys.RaceDetector(); det != nil {
		d.check(det.WriteReport(d.stderr))
	}
	if d.counters {
		sys.Stats.ReportCounters(d.stderr)
	}
	if d.countersJSON != "" {
		d.check(metrics.ExportCounters(d.countersJSON, sys.Stats, res.Cycles, int64(res.Ticks)))
	}
	if d.samplesOut != "" {
		d.check(metrics.ExportSamples(d.samplesOut, smp))
		fmt.Fprintf(d.stderr, "interval samples written to %s (%d samples)\n", d.samplesOut, len(smp.Samples()))
	}
	if lineProf != nil {
		lineProf.Report(d.stderr, 30)
	}
	if traceJSON {
		f, err := os.Create(d.trace)
		d.check(err)
		d.check(sys.EventLog().WriteChrome(f, sys.ChromeMeta()))
		d.check(f.Close())
		fmt.Fprintf(d.stderr, "chrome trace written to %s (%d events; load in Perfetto or chrome://tracing)\n",
			d.trace, len(sys.EventLog().Events))
	}
	d.dumpMemory(prog, sys.Machine.ReadWord)
	if d.floorplan {
		p := floorplan.NewGridPlan(cfg.Clusters)
		if tm != nil {
			p.Render(d.stderr, "die temperature (°C)", tm.Grid().T, math.NaN(), math.NaN())
			return
		}
		vals := make([]float64, cfg.Clusters)
		for i := range vals {
			vals[i] = float64(sys.Stats.Cluster[i].TCUInstrs())
		}
		p.Render(d.stderr, "per-cluster committed instructions", vals, math.NaN(), math.NaN())
	}
}

func endState(res *cycle.Result) string {
	switch {
	case res.Halted:
		return "halted"
	case res.Checkpoint:
		return "checkpoint"
	case res.TimedOut:
		return "cycle budget exhausted"
	}
	return "stopped"
}

// runFunctional is the functional-mode driver for both backends. A
// checkpoint() call writes the -checkpoint file and the run continues;
// SIGINT/SIGTERM writes it at the next quiescent boundary and the run stops.
func (d *driver) runFunctional(prog *asm.Program, cfg config.Config, resume *checkpoint.State) {
	switch {
	case strings.HasSuffix(d.trace, ".json") || d.counters || d.profile:
		d.fatal(fmt.Errorf("-trace *.json, -counters and -profile need the cycle-accurate mode"))
	case cfg.RaceCheck:
		d.fatal(fmt.Errorf("-race-check needs the cycle-accurate mode"))
	case d.samplesOut != "" || d.countersJSON != "" || d.serveAddr != "":
		d.fatal(fmt.Errorf("-samples, -counters-json and -serve need the cycle-accurate mode"))
	}
	m, err := funcmodel.New(prog, cfg.MemBytes, d.stdout)
	d.check(err)
	if resume != nil {
		d.check(checkpoint.Restore(m, resume))
	}
	if d.trace != "" {
		m.Trace = trace.New(d.stderr, trace.LevelFunctional).FuncHook()
	}
	var save func(*funcmodel.Machine) error // nil without -checkpoint
	if d.ckptOut != "" {
		save = func(m *funcmodel.Machine) error {
			if err := checkpoint.SaveFile(d.ckptOut, checkpoint.Capture(m, int64(m.InstrCount))); err != nil {
				return err
			}
			fmt.Fprintf(d.stderr, "checkpoint written to %s (instruction %d)\n", d.ckptOut, m.InstrCount)
			return nil
		}
	}
	// Functional mode has no cycle loop to piggyback on, so the signal
	// handler just raises a flag the run loop polls.
	var interrupted atomic.Bool
	stopSig := sigctl.Notify(d.tool, func() { interrupted.Store(true) })
	defer stopSig()

	// One loop, two step sizes: the interpreter advances an instruction at
	// a time, the VM in bounded bursts that end quiescent, so the interrupt
	// flag is seen promptly without a check in the VM's dispatch loop. The
	// VM services a checkpoint trap itself (OnCheckpoint) and clears the
	// request; under the interpreter it is still set after the step.
	banner := "functional mode"
	step := func() error { _, err := m.Step(); return err }
	if cfg.UseFuncVM() {
		vm, err := funcvm.Attach(m)
		d.check(err)
		vm.OnCheckpoint = save
		step = func() error { return vm.RunTo(m.InstrCount + 1<<16) } // 64 Ki instructions
		banner += ", vm backend"
	}
	for !m.Halted {
		d.check(step())
		if m.CheckpointRequested && save != nil {
			d.check(save(m))
			m.CheckpointRequested = false
		}
		if interrupted.Load() && !m.Halted && m.Quiescent() {
			if save != nil {
				d.check(save(m))
			}
			banner = "functional mode, stopped by signal"
			break
		}
	}
	fmt.Fprintf(d.stderr, "\n=== %d instructions (%s) ===\n", m.InstrCount, banner)
	d.dumpMemory(prog, m.ReadWord)
}

// dumpMemory implements the "memory dump" output of Fig. 3: for each -dump
// it prints words starting at a data symbol.
func (d *driver) dumpMemory(prog *asm.Program, read func(uint32) (int32, error)) {
	for _, spec := range d.dumps {
		name, cntStr, hasCnt := strings.Cut(spec, ":")
		count := 8
		if hasCnt {
			if _, err := fmt.Sscanf(cntStr, "%d", &count); err != nil || count <= 0 {
				d.fatal(fmt.Errorf("bad -dump count in %q", spec))
			}
		}
		addr, ok := prog.SymAddr(name)
		if !ok {
			d.fatal(fmt.Errorf("-dump: unknown data symbol %q", name))
		}
		fmt.Fprintf(d.stderr, "%s @0x%08x:", name, addr)
		for i := 0; i < count; i++ {
			v, err := read(addr + uint32(4*i))
			d.check(err)
			fmt.Fprintf(d.stderr, " %d", v)
		}
		fmt.Fprintln(d.stderr)
	}
}

func (d *driver) fatal(err error) {
	fmt.Fprintln(d.stderr, d.tool+":", err)
	panic(exitCode(1))
}

// check ends the run on a non-nil error.
func (d *driver) check(err error) {
	if err != nil {
		d.fatal(err)
	}
}
