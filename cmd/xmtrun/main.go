// Command xmtrun compiles and immediately simulates an XMTC program — the
// one-step workflow students and algorithm developers use ("install the
// toolchain on any personal computer and work on assignments", paper §I).
//
// Usage:
//
//	xmtrun [flags] program.c
//
// Examples:
//
//	xmtrun prog.c                          # cycle-accurate on fpga64
//	xmtrun -config chip1024 -stats prog.c
//	xmtrun -mode func prog.c               # fast functional debugging mode
//	xmtrun -mem input.map prog.c
//	xmtrun -profile prog.c                 # cycles per XMTC source line
//	xmtrun -counters prog.c                # hardware performance counters
//	xmtrun -trace out.json prog.c          # Chrome trace for Perfetto
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync/atomic"

	"xmtgo/internal/asm"
	"xmtgo/internal/codegen"
	"xmtgo/internal/config"
	"xmtgo/internal/prof"
	"xmtgo/internal/sigctl"
	"xmtgo/internal/sim/checkpoint"
	"xmtgo/internal/sim/cycle"
	"xmtgo/internal/sim/funcmodel"
	"xmtgo/internal/sim/funcvm"
	"xmtgo/internal/sim/metrics"
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
		mode      = flag.String("mode", "cycle", "simulation mode: cycle or func")
		backend   = flag.String("backend", "", "functional-mode backend: vm or interp (default: config func_backend, which the presets set to vm)")
		maxCycles = flag.Int64("max-cycles", 0, "stop after this many cycles (0 = unlimited)")
		showStats = flag.Bool("stats", false, "print instruction and activity counters")
		counters  = flag.Bool("counters", false, "print the hardware performance counter report")
		profFlag  = flag.Bool("profile", false, "print the cycle profile attributed to XMTC source lines")
		traceOut  = flag.String("trace", "", "write a Chrome trace (Perfetto) to this .json file")
		optLevel  = flag.Int("O", 1, "optimization level")
		ckptOut   = flag.String("checkpoint", "", "write a checkpoint here when the run stops at a checkpoint boundary (e.g. on SIGINT; resume with xmtsim -resume)")
		cluster   = flag.Int("cluster", 0, "virtual-thread clustering factor")
		noPref    = flag.Bool("no-prefetch", false, "disable compiler prefetching")
		noNB      = flag.Bool("no-nbstore", false, "disable non-blocking stores")
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
	)
	flag.Var(&sets, "set", "override one configuration key=value (repeatable)")
	flag.Var(&memmaps, "mem", "memory-map input file (repeatable)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: xmtrun [flags] program.c")
		flag.Usage()
		os.Exit(2)
	}

	cfg, err := config.Preset(*cfgName)
	if err != nil {
		fatal(err)
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

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "xmtrun: profile:", err)
		}
	}()

	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	res, err := codegen.Compile(flag.Arg(0), string(src), codegen.Options{
		OptLevel:      *optLevel,
		ClusterFactor: *cluster,
		NoPrefetch:    *noPref,
		NoNBStore:     *noNB,
		PrefetchSlots: 4,
	})
	if err != nil {
		fatal(err)
	}
	for _, w := range res.Warnings {
		fmt.Fprintln(os.Stderr, w)
	}
	prog, err := asm.Assemble(res.Unit)
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

	if *mode == "func" {
		if *traceOut != "" || *counters || *profFlag {
			fatal(fmt.Errorf("-trace, -counters and -profile need the cycle-accurate mode"))
		}
		if cfg.RaceCheck {
			fatal(fmt.Errorf("-race-check needs the cycle-accurate mode"))
		}
		if *samplesOut != "" || *countersJSON != "" {
			fatal(fmt.Errorf("-samples and -counters-json need the cycle-accurate mode"))
		}
		m, err := funcmodel.New(prog, cfg.MemBytes, os.Stdout)
		if err != nil {
			fatal(err)
		}
		// First SIGINT/SIGTERM raises a flag; the chunked run loops stop at
		// the next quiescent instruction boundary, persist a checkpoint when
		// -checkpoint was given, and exit cleanly (second signal forces exit).
		var interrupted atomic.Bool
		stopSig := sigctl.Notify("xmtrun", func() { interrupted.Store(true) })
		defer stopSig()
		stoppedBySignal := func(backend string) {
			if *ckptOut != "" {
				if err := checkpoint.SaveFile(*ckptOut, checkpoint.Capture(m, int64(m.InstrCount))); err != nil {
					fatal(err)
				}
				fmt.Fprintf(os.Stderr, "checkpoint written to %s (instruction %d)\n", *ckptOut, m.InstrCount)
			}
			fmt.Fprintf(os.Stderr, "\n=== %d instructions (functional mode%s, stopped by signal) ===\n", m.InstrCount, backend)
		}
		const chunk = 1 << 16
		if cfg.UseFuncVM() {
			vm, err := funcvm.Attach(m)
			if err != nil {
				fatal(err)
			}
			for !m.Halted {
				if err := vm.RunTo(m.InstrCount + chunk); err != nil {
					fatal(err)
				}
				if interrupted.Load() && !m.Halted {
					stoppedBySignal(", vm backend")
					return
				}
			}
			fmt.Fprintf(os.Stderr, "\n=== %d instructions (functional mode, vm backend) ===\n", m.InstrCount)
			return
		}
		for !m.Halted {
			if err := m.RunTo(m.InstrCount + chunk); err != nil {
				fatal(err)
			}
			if interrupted.Load() && !m.Halted {
				stoppedBySignal("")
				return
			}
		}
		fmt.Fprintf(os.Stderr, "\n=== %d instructions (functional mode) ===\n", m.InstrCount)
		return
	}
	if *backend != "" {
		fatal(fmt.Errorf("-backend applies to the functional mode (-mode func)"))
	}

	sys, err := cycle.New(prog, cfg, os.Stdout)
	if err != nil {
		fatal(err)
	}
	// First SIGINT/SIGTERM stops the run at the next architecturally
	// quiescent point (persisting a checkpoint when -checkpoint was given);
	// a second signal forces exit.
	stopSig := sigctl.Notify("xmtrun", sys.RequestCheckpoint)
	defer stopSig()
	if *showStats {
		sys.Stats.AddFilter(&stats.OpHistogram{})
	}
	if *traceOut != "" {
		sys.SetEventLog(trace.NewEventLog())
	}
	var lineProf *stats.LineProfile
	if *profFlag {
		// Instruction line numbers point into the XMTC source for compiled
		// programs, so the flat report annotates XMTC lines directly.
		lineProf = stats.NewLineProfile(prog, cfg.Clusters+1)
		lineProf.SetSource(string(src))
		sys.AttachProfile(lineProf)
	}
	smp := metrics.Attach(sys, cfg.SampleCycles)
	if *samplesOut != "" && smp == nil {
		fatal(fmt.Errorf("-samples needs a sampling interval (-sample-cycles or sample_cycles)"))
	}
	r, err := sys.Run(*maxCycles)
	if err != nil {
		fatal(err)
	}
	if smp != nil {
		smp.Finalize(r.Cycles, int64(r.Ticks), sys.Stats, sys.AliveTCUs())
	}
	fmt.Fprintf(os.Stderr, "\n=== %d cycles, %d instructions ===\n", r.Cycles, r.Instrs)
	if r.Checkpoint && *ckptOut != "" {
		if err := checkpoint.SaveFile(*ckptOut, sys.Capture()); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "checkpoint written to %s (cycle %d; resume with xmtsim -resume)\n", *ckptOut, r.Cycles)
	}
	if det := sys.RaceDetector(); det != nil {
		if err := det.WriteReport(os.Stderr); err != nil {
			fatal(err)
		}
	}
	if *showStats {
		sys.Stats.Report(os.Stderr)
	}
	if *counters {
		sys.Stats.ReportCounters(os.Stderr)
	}
	if *countersJSON != "" {
		if err := metrics.ExportCounters(*countersJSON, sys.Stats, r.Cycles, int64(r.Ticks)); err != nil {
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
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
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
			*traceOut, len(sys.EventLog().Events))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xmtrun:", err)
	os.Exit(1)
}
