// Command xmtsim is the XMT simulator driver: it loads an XMT assembly
// program (plus optional memory-map input files) and simulates it either
// cycle-accurately or in the fast functional mode, with the statistics,
// tracing, plug-in, checkpoint and floorplan facilities of XMTSim.
//
// Usage:
//
//	xmtsim [flags] program.s
//
// Examples:
//
//	xmtsim -config chip1024 -stats prog.s
//	xmtsim -mode func prog.s
//	xmtsim -set clusters=16 -set dram_latency=100 prog.s
//	xmtsim -trace cycle -trace-tcu 0 prog.s
//	xmtsim -hot prog.s
//	xmtsim -checkpoint state.ckpt prog.s           # save at sys checkpoint
//	xmtsim -resume state.ckpt prog.s               # resume from a checkpoint
//	xmtsim -thermal -floorplan prog.s
//	xmtsim -describe -config fpga64
//	xmtsim -workers 4 prog.s                       # host-parallel (results identical)
//	xmtsim -sample-cycles 5000 -samples ts.jsonl prog.s  # interval telemetry
//	xmtsim -serve 127.0.0.1:9090 prog.s            # live /metrics /status /stream
//	xmtsim -cpuprofile cpu.pprof prog.s            # see docs/PERF.md
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"sync/atomic"

	"xmtgo/internal/asm"
	"xmtgo/internal/config"
	"xmtgo/internal/floorplan"
	"xmtgo/internal/jobrun"
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

type listFlag []string

func (l *listFlag) String() string     { return strings.Join(*l, ",") }
func (l *listFlag) Set(v string) error { *l = append(*l, v); return nil }

func main() {
	var sets, memmaps listFlag
	var (
		cfgName   = flag.String("config", "fpga64", "machine preset: fpga64 or chip1024")
		cfgFile   = flag.String("config-file", "", "key=value configuration file")
		mode      = flag.String("mode", "cycle", "simulation mode: cycle or func")
		backend   = flag.String("backend", "", "functional-mode backend: vm or interp (default: config func_backend, which the presets set to vm)")
		maxCycles = flag.Int64("max-cycles", 0, "stop after this many cycles (0 = unlimited)")
		showStats = flag.Bool("stats", false, "print instruction and activity counters")
		hot       = flag.Bool("hot", false, "enable the hottest-memory-locations filter plug-in")
		histogram = flag.Bool("histogram", false, "enable the opcode-histogram filter plug-in")
		traceLvl  = flag.String("trace", "", "execution trace: func, cycle, or a .json path (Chrome trace for Perfetto)")
		counters  = flag.Bool("counters", false, "print the hardware performance counter report")
		profile   = flag.Bool("profile", false, "print the cycle profile (flat by source line + cumulative by function)")
		traceTCU  = flag.Int("trace-tcu", math.MinInt, "limit trace to one TCU (-1 = master)")
		traceOp   = flag.String("trace-op", "", "limit trace to one mnemonic")
		ckptOut   = flag.String("checkpoint", "", "write a checkpoint here when the program requests one")
		ckptIn    = flag.String("resume", "", "resume from this checkpoint file")
		thermal   = flag.Bool("thermal", false, "attach the power/thermal DVFS manager plug-in")
		plan      = flag.Bool("floorplan", false, "render the cluster floorplan at exit (activity or temperature)")
		describe  = flag.Bool("describe", false, "print the machine configuration and exit")
		workers   = flag.Int("workers", 0, config.HostWorkersUsage)
		faultPlan = flag.String("fault", "", `fault-injection plan, e.g. "memflip:10;tcufail:2@5000-90000" (docs/ROBUSTNESS.md)`)
		faultSeed = flag.Uint64("fault-seed", 0, "fault plan seed (0 = keep the preset's fault_seed)")
		watchdog  = flag.Int64("watchdog", -1, "no-progress watchdog window in cluster cycles (0 disables; -1 = keep the preset's watchdog_cycles)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file at exit")

		raceCheck = flag.Bool("race-check", false, "enable xmtsan, the deterministic dynamic race sanitizer (cycle mode; report on stderr)")

		sampleCycles = flag.Int64("sample-cycles", -1, "interval-sampler period in cluster cycles (0 disables; -1 = keep the preset's sample_cycles)")
		samplesOut   = flag.String("samples", "", "write the interval-sample time series here (.jsonl or .csv; needs a sampling interval)")
		countersJSON = flag.String("counters-json", "", "write the machine-readable counter snapshot (xmt-counters/v1 JSON) to this file")
		serveAddr    = flag.String("serve", "", "serve live metrics on this address while running (/metrics, /status, /stream)")
	)
	var dumps listFlag
	flag.Var(&dumps, "dump", "memory dump at exit: symbol or symbol:words (repeatable)")
	flag.Var(&sets, "set", "override one configuration key=value (repeatable)")
	flag.Var(&memmaps, "mem", "memory-map input file (repeatable)")
	flag.Parse()

	cfg, err := config.Preset(*cfgName)
	if err != nil {
		fatal(err)
	}
	if *cfgFile != "" {
		src, err := os.ReadFile(*cfgFile)
		if err != nil {
			fatal(err)
		}
		if err := cfg.Load(string(src)); err != nil {
			fatal(err)
		}
	}
	for _, kv := range sets {
		if err := cfg.Set(kv); err != nil {
			fatal(err)
		}
	}
	if *workers != 0 {
		cfg.HostWorkers = *workers
	}
	if *faultPlan != "" {
		cfg.FaultPlan = *faultPlan
	}
	if *faultSeed != 0 {
		cfg.FaultSeed = *faultSeed
	}
	if *watchdog >= 0 {
		cfg.WatchdogCycles = *watchdog
	}
	if *sampleCycles >= 0 {
		cfg.SampleCycles = *sampleCycles
	}
	if *raceCheck {
		cfg.RaceCheck = true
	}
	if *backend != "" {
		if err := cfg.Set("func_backend=" + *backend); err != nil {
			fatal(err)
		}
	}
	if *describe {
		fmt.Print(cfg.Describe())
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: xmtsim [flags] program.s")
		flag.Usage()
		os.Exit(2)
	}

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "xmtsim: profile:", err)
		}
	}()

	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, _, err := jobrun.Load("asm", flag.Arg(0), string(src))
	if err != nil {
		fatal(err)
	}
	for _, mm := range memmaps {
		data, err := os.ReadFile(mm)
		if err != nil {
			fatal(err)
		}
		if err := asm.ApplyMemMap(prog, mm, string(data)); err != nil {
			fatal(err)
		}
	}

	var resume *checkpoint.State
	if *ckptIn != "" {
		if resume, err = checkpoint.LoadFile(*ckptIn); err != nil {
			fatal(err)
		}
	}

	traceJSON := strings.HasSuffix(*traceLvl, ".json")
	if *mode == "func" {
		if traceJSON || *counters || *profile {
			fatal(fmt.Errorf("-trace *.json, -counters and -profile need the cycle-accurate mode"))
		}
		if cfg.RaceCheck {
			fatal(fmt.Errorf("-race-check needs the cycle-accurate mode"))
		}
		if *samplesOut != "" || *countersJSON != "" || *serveAddr != "" {
			fatal(fmt.Errorf("-samples, -counters-json and -serve need the cycle-accurate mode"))
		}
		m := runFunctional(prog, cfg, resume, *ckptOut, *traceLvl != "")
		if err := dumpMemory(prog, m.ReadWord, dumps); err != nil {
			fatal(err)
		}
		return
	}
	if *backend != "" {
		fatal(fmt.Errorf("-backend applies to the functional mode (-mode func)"))
	}

	sys, err := cycle.New(prog, cfg, os.Stdout)
	if err != nil {
		fatal(err)
	}
	if resume != nil {
		if err := sys.RestoreState(resume); err != nil {
			fatal(err)
		}
	}
	// First SIGINT/SIGTERM stops the run at the next architecturally
	// quiescent point; the epilogue below then persists the checkpoint when
	// -checkpoint was given, so an interrupted run can be resumed exactly.
	stopSig := sigctl.Notify("xmtsim", sys.RequestCheckpoint)
	defer stopSig()
	if *hot {
		sys.Stats.AddFilter(stats.NewHotLocations(uint32(cfg.CacheLineSize), 10))
	}
	if *histogram {
		sys.Stats.AddFilter(&stats.OpHistogram{})
	}
	var tm *power.ThermalManager
	if *thermal {
		tm, err = power.NewThermalManager(&cfg, 5000, 85)
		if err != nil {
			fatal(err)
		}
		sys.AddActivityPlugin(tm)
	}
	switch {
	case traceJSON:
		sys.SetEventLog(trace.NewEventLog())
	case *traceLvl != "":
		lvl := trace.LevelFunctional
		if *traceLvl == "cycle" {
			lvl = trace.LevelCycle
		}
		tr := trace.New(os.Stderr, lvl)
		if *traceTCU != math.MinInt {
			tr.LimitTCU(*traceTCU)
		}
		if *traceOp != "" {
			if err := tr.LimitOp(*traceOp); err != nil {
				fatal(err)
			}
		}
		sys.SetTrace(tr.CycleHook())
	}
	var lineProf *stats.LineProfile
	if *profile {
		lineProf = stats.NewLineProfile(prog, cfg.Clusters+1)
		lineProf.SetSource(string(src))
		sys.AttachProfile(lineProf)
	}

	// The sampler attaches after RestoreState so resumed runs report
	// absolute cycles, and after the thermal manager so its plug-in event
	// runs later at each boundary and reads the already-advanced grid.
	sampleInterval := cfg.SampleCycles
	if *serveAddr != "" && sampleInterval <= 0 {
		sampleInterval = metrics.DefaultSampleCycles // live serving needs a publish cadence
	}
	smp := metrics.Attach(sys, sampleInterval)
	if smp != nil && tm != nil {
		smp.AttachThermal(tm)
	}
	if *samplesOut != "" && smp == nil {
		fatal(fmt.Errorf("-samples needs a sampling interval (-sample-cycles or sample_cycles)"))
	}
	if *serveAddr != "" {
		msrv := metrics.NewServer()
		addr, err := msrv.ListenAndServe(*serveAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "serving metrics on http://%s (/metrics /status /stream)\n", addr)
		smp.SetServer(msrv)
		defer msrv.Close()
	}

	res, err := sys.Run(*maxCycles)
	if err != nil {
		fatal(err)
	}
	if smp != nil {
		smp.Finalize(res.Cycles, int64(res.Ticks), sys.Stats, sys.AliveTCUs())
	}
	fmt.Fprintf(os.Stderr, "\n=== %d cycles, %d instructions (%s) ===\n", res.Cycles, res.Instrs, endState(res))
	if res.Checkpoint && *ckptOut != "" {
		if err := checkpoint.SaveFile(*ckptOut, sys.Capture()); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "checkpoint written to %s (cycle %d)\n", *ckptOut, res.Cycles)
	}
	if *showStats {
		sys.Stats.Report(os.Stderr)
	}
	if det := sys.RaceDetector(); det != nil {
		if err := det.WriteReport(os.Stderr); err != nil {
			fatal(err)
		}
	}
	if *counters {
		sys.Stats.ReportCounters(os.Stderr)
	}
	if *countersJSON != "" {
		if err := metrics.ExportCounters(*countersJSON, sys.Stats, res.Cycles, int64(res.Ticks)); err != nil {
			fatal(err)
		}
	}
	if *samplesOut != "" {
		if err := metrics.ExportSamples(*samplesOut, smp); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "interval samples written to %s (%d samples)\n", *samplesOut, len(smp.Samples()))
	}
	if lineProf != nil {
		lineProf.Report(os.Stderr, 30)
	}
	if traceJSON {
		f, err := os.Create(*traceLvl)
		if err != nil {
			fatal(err)
		}
		if err := sys.EventLog().WriteChrome(f, sys.ChromeMeta()); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "chrome trace written to %s (%d events; load in Perfetto or chrome://tracing)\n",
			*traceLvl, len(sys.EventLog().Events))
	}
	if err := dumpMemory(prog, sys.Machine.ReadWord, dumps); err != nil {
		fatal(err)
	}
	if *plan {
		renderPlan(sys, tm, cfg)
	}
}

// dumpMemory implements the "memory dump" output of Fig. 3: it prints
// words starting at a data symbol.
func dumpMemory(prog *asm.Program, read func(uint32) (int32, error), dumps []string) error {
	for _, spec := range dumps {
		name, cntStr, hasCnt := strings.Cut(spec, ":")
		count := 8
		if hasCnt {
			if _, err := fmt.Sscanf(cntStr, "%d", &count); err != nil || count <= 0 {
				return fmt.Errorf("bad -dump count in %q", spec)
			}
		}
		addr, ok := prog.SymAddr(name)
		if !ok {
			return fmt.Errorf("-dump: unknown data symbol %q", name)
		}
		fmt.Fprintf(os.Stderr, "%s @0x%08x:", name, addr)
		for i := 0; i < count; i++ {
			v, err := read(addr + uint32(4*i))
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, " %d", v)
		}
		fmt.Fprintln(os.Stderr)
	}
	return nil
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

func renderPlan(sys *cycle.System, tm *power.ThermalManager, cfg config.Config) {
	p := floorplan.NewGridPlan(cfg.Clusters)
	if tm != nil {
		p.Render(os.Stderr, "die temperature (°C)", tm.Grid().T, math.NaN(), math.NaN())
		return
	}
	vals := make([]float64, cfg.Clusters)
	for i := range vals {
		vals[i] = float64(sys.Stats.Cluster[i].TCUInstrs)
	}
	p.Render(os.Stderr, "per-cluster committed instructions", vals, math.NaN(), math.NaN())
}

func runFunctional(prog *asm.Program, cfg config.Config, resume *checkpoint.State, ckptOut string, traceOn bool) *funcmodel.Machine {
	m, err := funcmodel.New(prog, cfg.MemBytes, os.Stdout)
	if err != nil {
		fatal(err)
	}
	if resume != nil {
		if err := checkpoint.Restore(m, resume); err != nil {
			fatal(err)
		}
	}
	if traceOn {
		tr := trace.New(os.Stderr, trace.LevelFunctional)
		m.Trace = tr.FuncHook()
	}
	saveCkpt := func(m *funcmodel.Machine) error {
		if err := checkpoint.SaveFile(ckptOut, checkpoint.Capture(m, int64(m.InstrCount))); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "checkpoint written to %s (instruction %d)\n", ckptOut, m.InstrCount)
		return nil
	}
	// Functional mode has no cycle loop to piggyback on, so the signal
	// handler just raises a flag; the run loops below stop at the next
	// quiescent instruction boundary, persist a checkpoint when -checkpoint
	// was given, and exit cleanly.
	var interrupted atomic.Bool
	stopSig := sigctl.Notify("xmtsim", func() { interrupted.Store(true) })
	defer stopSig()
	stoppedBySignal := func() {
		if ckptOut != "" {
			if err := saveCkpt(m); err != nil {
				fatal(err)
			}
		}
		fmt.Fprintf(os.Stderr, "\n=== %d instructions (functional mode, stopped by signal) ===\n", m.InstrCount)
	}
	if cfg.UseFuncVM() {
		vm, err := funcvm.Attach(m)
		if err != nil {
			fatal(err)
		}
		if ckptOut != "" {
			vm.OnCheckpoint = saveCkpt
		}
		// Run in bounded chunks so the interrupt flag is observed promptly
		// without a per-instruction check in the VM dispatch loop.
		const chunk = 1 << 16
		for !m.Halted {
			if err := vm.RunTo(m.InstrCount + chunk); err != nil {
				fatal(err)
			}
			if interrupted.Load() && !m.Halted {
				stoppedBySignal()
				return m
			}
		}
		fmt.Fprintf(os.Stderr, "\n=== %d instructions (functional mode, vm backend) ===\n", m.InstrCount)
		return m
	}
	for {
		ok, err := m.Step()
		if err != nil {
			fatal(err)
		}
		if m.CheckpointRequested && ckptOut != "" {
			if err := saveCkpt(m); err != nil {
				fatal(err)
			}
			m.CheckpointRequested = false
		}
		if !ok {
			break
		}
		if interrupted.Load() && m.Quiescent() {
			stoppedBySignal()
			return m
		}
	}
	fmt.Fprintf(os.Stderr, "\n=== %d instructions (functional mode) ===\n", m.InstrCount)
	return m
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xmtsim:", err)
	os.Exit(1)
}
