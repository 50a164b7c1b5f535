// Benchmarks regenerating every table and figure of the paper's
// evaluation; EXPERIMENTS.md records the measured results next to the
// paper's. Run with:
//
//	go test -bench=. -benchmem
//
// Table I        -> BenchmarkTableI_*            (simulated instr/sec & cycle/sec)
// §III-A claim   -> BenchmarkFunctionalVsCycle   (functional mode >> cycle mode)
// §III-D / Fig.4 -> BenchmarkMacroActorThreshold (per-component actors vs macro-actor)
// Fig. 5         -> BenchmarkDEvsDT              (discrete-event vs discrete-time loop)
// Fig. 2a        -> BenchmarkFig2aCompaction
// §II-B speedups -> BenchmarkSpeedup_*           (parallel vs serial cycle counts)
// §IV-C ([8])    -> BenchmarkAblationPrefetch
// §IV-C ([10])   -> BenchmarkAblationClustering
// §IV-C          -> BenchmarkAblationNBStore
// §III-F ([22])  -> BenchmarkThermalPipeline
package xmtgo_test

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xmtgo"
	"xmtgo/internal/sim/engine"
	"xmtgo/internal/workloads"
)

// buildB compiles a workload for benchmarking.
func buildB(b *testing.B, src string, opts xmtgo.CompileOptions, memmaps ...string) *xmtgo.Program {
	b.Helper()
	prog, _, err := xmtgo.Build("bench.c", src, opts, memmaps...)
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// cycleRun simulates one program to completion and returns the result.
func cycleRun(b *testing.B, prog *xmtgo.Program, cfg xmtgo.Config) *xmtgo.SimResult {
	b.Helper()
	res, _ := cycleRunEvents(b, prog, cfg)
	return res
}

// cycleRunEvents is cycleRun that also returns the run's scheduler event
// count (Sched.Executed).
func cycleRunEvents(b *testing.B, prog *xmtgo.Program, cfg xmtgo.Config) (*xmtgo.SimResult, uint64) {
	b.Helper()
	sys, err := xmtgo.NewSimulator(prog, cfg, io.Discard)
	if err != nil {
		b.Fatal(err)
	}
	res, err := sys.Run(0)
	if err != nil {
		b.Fatal(err)
	}
	if !res.Halted {
		b.Fatal("benchmark program did not halt")
	}
	events := sys.Sched.Executed
	sys.Release()
	return res, events
}

// --- Table I: simulated throughput of XMTSim on the 1024-TCU machine ---

func tableIBench(b *testing.B, g workloads.TableIGroup) {
	cfg := xmtgo.ConfigChip1024()
	threads := cfg.Clusters * cfg.TCUsPerCluster
	work := 40
	if g == workloads.SerialMemory || g == workloads.SerialCompute {
		work = 40000
	}
	prog := buildB(b, workloads.TableI(g, threads, work), xmtgo.DefaultCompileOptions())
	var instrs, cycles int64
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, n := cycleRunEvents(b, prog, cfg)
		events += n
		instrs += int64(res.Instrs)
		cycles += res.Cycles
	}
	b.StopTimer()
	sec := b.Elapsed().Seconds()
	if sec > 0 {
		b.ReportMetric(float64(instrs)/sec, "sim_instr/sec")
		b.ReportMetric(float64(cycles)/sec, "sim_cycle/sec")
	}
	// The scheduler's share of the work: a change that skips events shows
	// here as a count, whatever the host's speed.
	b.ReportMetric(float64(events)/float64(b.N), "sched_events/op")
}

func BenchmarkTableI_ParallelMemory(b *testing.B) { tableIBench(b, workloads.ParallelMemory) }
func BenchmarkTableI_ParallelCompute(b *testing.B) {
	tableIBench(b, workloads.ParallelCompute)
}
func BenchmarkTableI_SerialMemory(b *testing.B)  { tableIBench(b, workloads.SerialMemory) }
func BenchmarkTableI_SerialCompute(b *testing.B) { tableIBench(b, workloads.SerialCompute) }

// --- Cluster compute: host cost of one simulated TCU issue ---
//
// Table I parallel-compute at work 400 on one host worker is the run where
// TCU.run/TCU.issue, which counts each instruction as it issues, are nearly
// all of the host time, so host_ns/sim_instr is the go-bench anchor for the
// "cluster compute" layer next to the end-to-end sim-par-compute number
// (docs/PERF.md §Lowered issue stream). `sh scripts/ab.sh REV
// BenchmarkTCUIssue` compares it between two commits in pinned pairs.
func BenchmarkTCUIssue(b *testing.B) {
	cfg := xmtgo.ConfigChip1024()
	cfg.HostWorkers = 1
	prog := buildB(b, workloads.TableI(workloads.ParallelCompute, cfg.Clusters*cfg.TCUsPerCluster, 400),
		xmtgo.DefaultCompileOptions())
	var instrs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		instrs += cycleRun(b, prog, cfg).Instrs
	}
	b.StopTimer()
	if instrs > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "host_ns/sim_instr")
	}
}

// --- Host-parallel scaling: simulated cycles/sec vs Config.HostWorkers ---
//
// The parallel-memory and parallel-compute Table I groups on the 1024-TCU
// machine are the workloads where the cluster macro-actor dominates host
// time, so they bound what sharding the clusters across goroutines can buy.
// Results are bit-identical at every worker count (TestHostParallelDeterminism);
// only wall-clock changes. workers-auto is the config default
// (host_workers=0): beside workers-1 it shows what the default costs
// against the serial path, and the explicit arms show what
// opting in to N workers buys on the recording host (docs/PERF.md
// §Host-parallel cluster simulation).
func BenchmarkHostParallelScaling(b *testing.B) {
	for _, g := range []workloads.TableIGroup{workloads.ParallelMemory, workloads.ParallelCompute} {
		cfg := xmtgo.ConfigChip1024()
		prog := buildB(b, workloads.TableI(g, cfg.Clusters*cfg.TCUsPerCluster, 40),
			xmtgo.DefaultCompileOptions())
		for _, w := range []int{0, 1, 2, 4, 8} {
			arm := fmt.Sprintf("workers-%d", w)
			if w == 0 {
				arm = "workers-auto"
			}
			b.Run(g.Name()+"/"+arm, func(b *testing.B) {
				wcfg := cfg
				wcfg.HostWorkers = w
				var cycles int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cycles += cycleRun(b, prog, wcfg).Cycles
				}
				b.StopTimer()
				if sec := b.Elapsed().Seconds(); sec > 0 {
					b.ReportMetric(float64(cycles)/sec, "sim_cycle/sec")
				}
			})
		}
	}
}

// --- Bounded lookahead: window width and engine mode vs throughput ---
//
// Compares one-cycle windows (lookahead=1), the derived conservative window
// and the optimistic rollback mode on the two parallel Table I groups
// (docs/PERF.md §Lookahead). Results are bit-identical in
// every configuration (TestLookaheadDeterminism); only wall-clock changes.
// The compute group is where multi-cycle windows pay: clusters run long
// stretches without cross-cluster traffic clamping the span.
func BenchmarkLookahead(b *testing.B) {
	for _, g := range []workloads.TableIGroup{workloads.ParallelMemory, workloads.ParallelCompute} {
		cfg := xmtgo.ConfigChip1024()
		prog := buildB(b, workloads.TableI(g, cfg.Clusters*cfg.TCUsPerCluster, 40),
			xmtgo.DefaultCompileOptions())
		for _, v := range []struct {
			name      string
			lookahead int
			mode      string
		}{
			{"single-cycle", 1, ""},
			{"window-derived", 0, ""},
			{"optimistic", 0, xmtgo.EngineOptimistic},
		} {
			b.Run(fmt.Sprintf("%s/%s", g.Name(), v.name), func(b *testing.B) {
				vcfg := cfg
				vcfg.Lookahead = v.lookahead
				vcfg.EngineMode = v.mode
				var cycles int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cycles += cycleRun(b, prog, vcfg).Cycles
				}
				b.StopTimer()
				if sec := b.Elapsed().Seconds(); sec > 0 {
					b.ReportMetric(float64(cycles)/sec, "sim_cycle/sec")
				}
			})
		}
	}
}

// --- §III-A: the functional mode is orders of magnitude faster ---

func BenchmarkFunctionalVsCycle(b *testing.B) {
	cfg := xmtgo.ConfigChip1024()
	prog := buildB(b, workloads.TableI(workloads.ParallelCompute, 1024, 40), xmtgo.DefaultCompileOptions())
	b.Run("functional", func(b *testing.B) {
		var instrs uint64
		for i := 0; i < b.N; i++ {
			n, err := xmtgo.RunFunctional(prog, cfg, io.Discard)
			if err != nil {
				b.Fatal(err)
			}
			instrs += n
		}
		if sec := b.Elapsed().Seconds(); sec > 0 {
			b.ReportMetric(float64(instrs)/sec, "sim_instr/sec")
		}
	})
	b.Run("cycle", func(b *testing.B) {
		var instrs uint64
		for i := 0; i < b.N; i++ {
			res := cycleRun(b, prog, cfg)
			instrs += res.Instrs
		}
		if sec := b.Elapsed().Seconds(); sec > 0 {
			b.ReportMetric(float64(instrs)/sec, "sim_instr/sec")
		}
	})
}

// --- Functional backends: interpreter vs the funcvm bytecode VM ---
//
// Both backends produce bit-identical architectural results (the three-way
// conformance matrix and FuzzBackendDifferential enforce it); this
// benchmark measures what the lowered direct-threaded dispatch buys on
// each workload shape (docs/SIMULATOR.md §Functional backends).
func BenchmarkFuncBackend(b *testing.B) {
	type wl struct {
		name string
		src  string
	}
	var cases []wl
	for _, g := range []workloads.TableIGroup{
		workloads.ParallelMemory, workloads.ParallelCompute,
		workloads.SerialMemory, workloads.SerialCompute,
	} {
		work := 40
		if g == workloads.SerialMemory || g == workloads.SerialCompute {
			work = 40000
		}
		cases = append(cases, wl{g.Name(), workloads.TableI(g, 1024, work)})
	}
	comp, _ := workloads.Compaction(4096, 0.5, 3)
	cases = append(cases, wl{"compaction", comp})

	for _, c := range cases {
		prog := buildB(b, c.src, xmtgo.DefaultCompileOptions())
		for _, backend := range []string{xmtgo.FuncBackendInterp, xmtgo.FuncBackendVM} {
			b.Run(fmt.Sprintf("%s/%s", c.name, backend), func(b *testing.B) {
				cfg := xmtgo.ConfigChip1024()
				cfg.FuncBackend = backend
				var instrs uint64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					n, err := xmtgo.RunFunctional(prog, cfg, io.Discard)
					if err != nil {
						b.Fatal(err)
					}
					instrs += n
				}
				if sec := b.Elapsed().Seconds(); sec > 0 {
					b.ReportMetric(float64(instrs)/sec, "sim_instr/sec")
				}
			})
		}
	}
}

// --- §III-D / Fig. 4: macro-actor vs per-component actors ---
//
// The trade-off the paper measured: with one actor per component, the DE
// scheduler pays one event per ACTIVE component per cycle (idle components
// cost nothing — the strength of DE); a macro-actor pays one event per
// cycle but polls EVERY grouped component, active or not (DT-style inner
// loop). The macro-actor style wins once the number of events per cycle
// passes a threshold — the paper measured ≈800 events/cycle for empty
// action code on their Java implementation; the exact break-even depends
// on the scheduler-overhead-to-poll-cost ratio, so we sweep the active
// count K over a fixed population N and report ns per simulated cycle for
// both styles.

type emptyComp struct {
	cycles int64
	active bool
}

func (c *emptyComp) Tick(cycle int64, now engine.Time) bool {
	if !c.active {
		return false
	}
	c.cycles++
	return c.cycles < 2000 // run for a fixed number of cycles
}

// macroActorBench simulates 2000 cycles of a population of n components of
// which k are active per cycle.
func macroActorBench(b *testing.B, n, k int, macro bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sched := engine.New()
		clock := engine.NewClock("bench", 1)
		if macro {
			ma := engine.NewMacroActor("macro", sched, clock)
			for j := 0; j < n; j++ {
				ma.Add(&emptyComp{active: j < k})
			}
			ma.Wake(0)
		} else {
			// DE per-component actors: idle components never schedule —
			// only the k active ones enter the event list.
			for j := 0; j < k; j++ {
				engine.NewSingleActor(sched, clock, &emptyComp{active: true}).Wake(0)
			}
		}
		sched.Run()
	}
	b.StopTimer()
	total := float64(b.N) * 2000
	if total > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/cycle")
	}
}

func BenchmarkMacroActorThreshold(b *testing.B) {
	const n = 4096
	for _, k := range []int{8, 16, 32, 64, 128, 512, 2048, 4096} {
		b.Run(fmt.Sprintf("actors-events-%d", k), func(b *testing.B) { macroActorBench(b, n, k, false) })
		b.Run(fmt.Sprintf("macro-events-%d", k), func(b *testing.B) { macroActorBench(b, n, k, true) })
	}
}

// --- The event list: host cost of one scheduler event ---
//
// The go-bench anchor for the scheduler layer (docs/PERF.md §The event
// list), in the two shapes the Table I runs put it in. serial-section is one
// macro-actor re-arming its next clock edge while nothing but a far-future
// stop event is pending — the master in a serial section, where every event
// is next in line and bypasses the calendar queue. parallel-memory is three
// macro-actors on one period plus 40 packages in flight at staggered
// latencies, where events wait behind each other and the queue does its
// work. Both run on the presets' geometry: period 8 on 8-tick buckets.
func BenchmarkSchedulerEdge(b *testing.B) {
	const period, cycles = 8, 100_000
	busy := engine.CyclerFunc(func(int64, engine.Time) bool { return true })
	run := func(b *testing.B, actors, inflight int) {
		var events uint64
		for i := 0; i < b.N; i++ {
			sched := engine.New()
			sched.SetBucketWidth(period)
			clock := engine.NewClock("bench", period)
			for j := 0; j < actors; j++ {
				engine.NewMacroActor("edge", sched, clock, busy).Wake(0)
			}
			for j := 0; j < inflight; j++ {
				latency := engine.Time(3+j) * period
				var hop engine.ActorFunc
				hop = func(now engine.Time) { sched.Schedule(now+latency, engine.PrioTransfer, hop) }
				sched.Schedule(latency, engine.PrioTransfer, hop)
			}
			sched.ScheduleStop(cycles * period)
			sched.Run()
			events += sched.Executed
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "host_ns/event")
	}
	b.Run("serial-section", func(b *testing.B) { run(b, 1, 0) })
	b.Run("parallel-memory", func(b *testing.B) { run(b, 3, 40) })
}

// --- Fig. 5: discrete-event vs discrete-time main loops ---

func BenchmarkDEvsDT(b *testing.B) {
	const n, cycles = 256, 2000
	b.Run("discrete-event", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sched := engine.New()
			clock := engine.NewClock("bench", 1)
			for j := 0; j < n; j++ {
				engine.NewSingleActor(sched, clock, &emptyComp{}).Wake(0)
			}
			sched.Run()
		}
	})
	b.Run("discrete-time", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			comps := make([]engine.Cycler, n)
			for j := range comps {
				comps[j] = &emptyComp{}
			}
			engine.RunDT(comps, 1, cycles)
		}
	})
}

// --- Fig. 2a: the array-compaction example ---

func BenchmarkFig2aCompaction(b *testing.B) {
	src, _ := workloads.Compaction(512, 0.5, 3)
	prog := buildB(b, src, xmtgo.DefaultCompileOptions())
	var cycles int64
	for i := 0; i < b.N; i++ {
		cycles = cycleRun(b, prog, xmtgo.ConfigFPGA64()).Cycles
	}
	b.ReportMetric(float64(cycles), "sim_cycles")
}

// --- §II-B: speedup shapes (parallel vs serial cycle counts) ---

func speedupBench(b *testing.B, parallel, serial string, memmaps ...string) {
	pProg := buildB(b, parallel, xmtgo.DefaultCompileOptions(), memmaps...)
	sProg := buildB(b, serial, xmtgo.DefaultCompileOptions(), memmaps...)
	sCycles := cycleRun(b, sProg, xmtgo.ConfigFPGA64()).Cycles
	s1024 := cycleRun(b, pProg, xmtgo.ConfigChip1024()).Cycles
	var pCycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pCycles = cycleRun(b, pProg, xmtgo.ConfigFPGA64()).Cycles
	}
	b.ReportMetric(float64(sCycles)/float64(pCycles), "speedup_64tcu")
	b.ReportMetric(float64(sCycles)/float64(s1024), "speedup_1024tcu")
	b.ReportMetric(float64(pCycles), "par_cycles")
	b.ReportMetric(float64(sCycles), "ser_cycles")
}

func BenchmarkSpeedup_BFS(b *testing.B) {
	g := workloads.RandomGraph(400, 8, 1)
	par, ser := workloads.BFS(512, 8192)
	speedupBench(b, par, ser, g.MemMap())
}

func BenchmarkSpeedup_Reduction(b *testing.B) {
	par, ser, _ := workloads.Reduction(2048)
	speedupBench(b, par, ser)
}

func BenchmarkSpeedup_MatMul(b *testing.B) {
	par, ser := workloads.MatMul(24)
	speedupBench(b, par, ser)
}

func BenchmarkSpeedup_VecAdd(b *testing.B) {
	par, ser, _ := workloads.VecAdd(2048)
	speedupBench(b, par, ser)
}

// --- §IV-C ablations: the XMT-specific compiler optimizations ---

// prefetchKernel: each virtual thread reads 8 words from 8 distinct cache
// lines with addresses computable at thread start — the access shape the
// compiler prefetch pass targets ([8]). With prefetching the 8 shared-cache
// round trips overlap; without it they serialize on the blocking loads.
// Latency-tolerance ablations need spare interconnect bandwidth (a
// saturated ICN is bound by throughput, and no latency-hiding mechanism
// can help); the kernels therefore run modest thread counts on the
// 1024-TCU machine so each virtual thread's shared-memory round trips
// dominate.
const prefetchKernel = `
int A[8192];
int B[128];
int main() {
    int i;
    for (i = 0; i < 8192; i += 97) A[i] = i;
    spawn(0, 127) {
        int b = $ * 64;
        int s = A[b] + A[b + 8] + A[b + 16] + A[b + 24]
              + A[b + 32] + A[b + 40] + A[b + 48] + A[b + 56];
        B[$] = s;
    }
    print_int(B[127]);
    return 0;
}`

// nbstoreKernel: each virtual thread issues 8 scattered word stores. With
// non-blocking stores the TCU fires them back to back; with blocking
// stores each waits out a full shared-memory round trip.
const nbstoreKernel = `
int B[8192];
int main() {
    spawn(0, 127) {
        int b = $ * 64;
        B[b] = 1; B[b + 8] = 2; B[b + 16] = 3; B[b + 24] = 4;
        B[b + 32] = 5; B[b + 40] = 6; B[b + 48] = 7; B[b + 56] = 8;
    }
    print_int(B[64 * 127 + 56]);
    return 0;
}`

func ablation(b *testing.B, on, off xmtgo.CompileOptions, cfg xmtgo.Config, src string, metric string) {
	pOn := buildB(b, src, on)
	pOff := buildB(b, src, off)
	offCycles := cycleRun(b, pOff, cfg).Cycles
	var onCycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		onCycles = cycleRun(b, pOn, cfg).Cycles
	}
	b.ReportMetric(float64(onCycles), "cycles_on")
	b.ReportMetric(float64(offCycles), "cycles_off")
	b.ReportMetric(float64(offCycles)/float64(onCycles), metric)
}

func BenchmarkAblationPrefetch(b *testing.B) {
	on := xmtgo.DefaultCompileOptions()
	on.PrefetchSlots = 8
	off := on
	off.NoPrefetch = true
	// Latency hiding needs injection bandwidth headroom: explore the
	// high-injection design point (this is exactly the kind of
	// design-space question the simulator's configurability is for).
	cfg := xmtgo.ConfigChip1024()
	cfg.ICNInjectPerCyc = 16
	ablation(b, on, off, cfg, prefetchKernel, "prefetch_gain")
}

func BenchmarkAblationNBStore(b *testing.B) {
	on := xmtgo.DefaultCompileOptions()
	off := on
	off.NoNBStore = true
	ablation(b, on, off, xmtgo.ConfigChip1024(), nbstoreKernel, "nbstore_gain")
}

func BenchmarkAblationClustering(b *testing.B) {
	// Extremely fine-grained virtual threads — a couple of compute
	// instructions each — where the per-thread scheduling overhead (the
	// ps grab round trip through the finite-throughput combining
	// hardware) rivals the body; clustering amortizes it over a loop
	// (paper §IV-C, [10]).
	fine := `
int B[16384];
int main() {
    spawn(0, 16383) {
        B[$] = $ ^ ($ >> 3);
    }
    print_int(B[16383]);
    return 0;
}`
	on := xmtgo.DefaultCompileOptions()
	on.ClusterFactor = 8
	off := xmtgo.DefaultCompileOptions()
	// The grab overhead dominates when the prefix-sum combining hardware
	// is narrow; explore that design point (ps_per_cycle=8).
	cfg := xmtgo.ConfigChip1024()
	cfg.PSPerCycle = 8
	ablation(b, on, off, cfg, fine, "clustering_gain")
}

// --- §III-F: the power/thermal pipeline ---

func BenchmarkThermalPipeline(b *testing.B) {
	cfg := xmtgo.ConfigFPGA64()
	src := workloads.TableI(workloads.ParallelCompute, 64, 500)
	prog := buildB(b, src, xmtgo.DefaultCompileOptions())
	for i := 0; i < b.N; i++ {
		sys, err := xmtgo.NewSimulator(prog, cfg, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		tm, err := xmtgo.NewThermalManager(&cfg, 1000, 55)
		if err != nil {
			b.Fatal(err)
		}
		sys.AddActivityPlugin(tm)
		if _, err := sys.Run(0); err != nil {
			b.Fatal(err)
		}
		if len(tm.History) == 0 {
			b.Fatal("thermal manager never sampled")
		}
	}
}

// --- compile speed of the toolchain itself ---

// BenchmarkCompile times xmtgo.Build (compile, assemble, memory map) over
// the examples/xmtc fixtures the compiler accepts and the workload kernels,
// the graph and Table I memory kernels with their memory-map inputs.
// lines/sec counts XMTC source lines. Compare two commits with
// `sh scripts/ab.sh REV BenchmarkCompile`.
func BenchmarkCompile(b *testing.B) {
	type input struct {
		name, src string
		memmaps   []string
	}
	var ins []input
	paths, _ := filepath.Glob(filepath.Join("examples", "xmtc", "*.c"))
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			b.Fatal(err)
		}
		// misuse.c is rejected on purpose: it is the analyzer's fixture.
		if _, _, err := xmtgo.Build(path, string(src), xmtgo.DefaultCompileOptions()); err == nil {
			ins = append(ins, input{name: filepath.Base(path), src: string(src)})
		}
	}
	g := workloads.RandomGraph(400, 8, 1)
	connMap, _ := workloads.ComponentsGraph(300, 6, 8, 2)
	bfsPar, bfsSer := workloads.BFS(512, 8192)
	connPar, _ := workloads.Connectivity(512, 4096)
	fftPar, _ := workloads.FFT(256)
	mmPar, _ := workloads.MatMul(24)
	psPar, _, _, _ := workloads.PrefixSum(1024)
	redPar, _, _ := workloads.Reduction(2048)
	vaPar, _, _ := workloads.VecAdd(2048)
	compSrc, _ := workloads.Compaction(512, 0.5, 3)
	array := func(n int) string { // the Table I memory kernels' input A
		var b strings.Builder
		b.WriteString("A =")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, " %d", i*7919%1000)
		}
		return b.String()
	}
	ins = append(ins,
		input{"bfs.c", bfsPar, []string{g.MemMap()}},
		input{"bfs-serial.c", bfsSer, []string{g.MemMap()}},
		input{"connectivity.c", connPar, []string{connMap}},
		input{"fft.c", fftPar, nil},
		input{"matmul.c", mmPar, nil},
		input{"prefix-sum.c", psPar, nil},
		input{"reduction.c", redPar, nil},
		input{"vecadd.c", vaPar, nil},
		input{"compaction.c", compSrc, nil},
		input{"par-mem.c", workloads.TableI(workloads.ParallelMemory, 1024, 40), []string{array(1024 * 8)}},
		input{"par-compute.c", workloads.TableI(workloads.ParallelCompute, 1024, 40), nil},
		input{"serial-mem.c", workloads.TableI(workloads.SerialMemory, 1024, 40000), []string{array(40000)}},
		input{"serial-compute.c", workloads.TableI(workloads.SerialCompute, 1024, 40000), nil},
	)
	lines := 0
	for _, in := range ins {
		lines += strings.Count(in.src, "\n") + 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range ins {
			if _, _, err := xmtgo.Build(in.name, in.src, xmtgo.DefaultCompileOptions(), in.memmaps...); err != nil {
				b.Fatalf("%s: %v", in.name, err)
			}
		}
	}
	b.ReportMetric(float64(lines)*float64(b.N)/b.Elapsed().Seconds(), "lines/sec")
}

// --- Job completion: what a finished job costs the daemon ---

// doneLoopSrc is the daemon's short serial job (benchmark/ daemon-open's
// loopSrc at 2000 iterations): a register loop, one store, one print.
const doneLoopSrc = `
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

// BenchmarkJobDone times what the daemon does with a finished job's state:
// Capture, Digest (its memhash) and Save (a checkpoint write's encoding),
// on the daemon's loop job with 1 MiB of memory (fpga64) and on chip1024
// Table I parallel-memory (64 MiB). ckpt_bytes is the encoded size. Compare
// two commits with `sh scripts/ab.sh REV BenchmarkJobDone`.
func BenchmarkJobDone(b *testing.B) {
	loopProg, err := xmtgo.Assemble("loop.s", doneLoopSrc)
	if err != nil {
		b.Fatal(err)
	}
	loopCfg := xmtgo.ConfigFPGA64()
	loopCfg.MemBytes = 1 << 20
	chip := xmtgo.ConfigChip1024()
	var a strings.Builder // the kernel's input A, as in sim-par-mem
	a.WriteString("A =")
	for i := 0; i < 1024*8; i++ {
		fmt.Fprintf(&a, " %d", i*7919%1000)
	}
	parMem := buildB(b, workloads.TableI(workloads.ParallelMemory, chip.Clusters*chip.TCUsPerCluster, 40),
		xmtgo.DefaultCompileOptions(), a.String())
	for _, c := range []struct {
		name string
		prog *xmtgo.Program
		cfg  xmtgo.Config
	}{{"loop_1MiB", loopProg, loopCfg}, {"chip1024_par_mem", parMem, chip}} {
		b.Run(c.name, func(b *testing.B) {
			sys, err := xmtgo.NewSimulator(c.prog, c.cfg, io.Discard)
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Release()
			if res, err := sys.Run(0); err != nil || !res.Halted {
				b.Fatalf("run: %v", err)
			}
			var buf bytes.Buffer
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st := sys.Capture()
				st.Digest()
				buf.Reset()
				if err := xmtgo.SaveCheckpoint(&buf, st); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(buf.Len()), "ckpt_bytes")
		})
	}
}

// --- §III-F: synchronous vs asynchronous interconnect ---
//
// The paper reports work in progress (with Columbia, following [39])
// comparing synchronous and asynchronous ICN implementations inside
// XMTSim — possible because the simulator is discrete-event: the async
// variant's handshake delays are continuous times, not clock edges.
func BenchmarkAsyncICN(b *testing.B) {
	par, _, _ := workloads.Reduction(2048)
	prog := buildB(b, par, xmtgo.DefaultCompileOptions())
	syncCfg := xmtgo.ConfigChip1024()
	asyncCfg := xmtgo.ConfigChip1024()
	asyncCfg.ICNAsync = true
	syncCycles := cycleRun(b, prog, syncCfg).Cycles
	var asyncCycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		asyncCycles = cycleRun(b, prog, asyncCfg).Cycles
	}
	b.ReportMetric(float64(syncCycles), "cycles_sync")
	b.ReportMetric(float64(asyncCycles), "cycles_async")
	b.ReportMetric(float64(syncCycles)/float64(asyncCycles), "async_gain")
}

// FFT ([24]): the paper's showcase that XMT gets speedups from limited
// application parallelism — each butterfly stage spawns only n/2 virtual
// threads.
func BenchmarkSpeedup_FFT(b *testing.B) {
	par, ser := workloads.FFT(256)
	speedupBench(b, par, ser)
}

// Graph connectivity (§II-B: PRAM-derived connectivity reported 2.2x-4x
// over optimized GPU implementations).
func BenchmarkSpeedup_Connectivity(b *testing.B) {
	mm, _ := workloads.ComponentsGraph(300, 6, 8, 2)
	par, ser := workloads.Connectivity(512, 4096)
	speedupBench(b, par, ser, mm)
}
