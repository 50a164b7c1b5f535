// Host-parallel determinism: the cycle-accurate simulator must produce
// bit-identical results regardless of how many host workers tick the
// cluster shards (Config.HostWorkers). This is the contract that makes
// -workers a pure host-speed choice (0, the default, resolves to one worker;
// N fans the cluster domain out): cycle counts, halt state, every statistics
// counter and all program output match the serial run exactly.
// scripts/check.sh runs this test under -race, which also proves the
// compute phase is free of shared-state races.
package xmtgo_test

import (
	"bytes"
	"reflect"
	"testing"

	"xmtgo"
	"xmtgo/internal/sim/engine"
	"xmtgo/internal/sim/metrics"
	"xmtgo/internal/sim/trace"
	"xmtgo/internal/workloads"
)

type detCase struct {
	name    string
	src     string
	cfg     xmtgo.Config
	memmaps []string
}

func determinismCorpus(t *testing.T) []detCase {
	t.Helper()
	fpga := xmtgo.ConfigFPGA64()
	async := fpga
	async.ICNAsync = true
	chip := xmtgo.ConfigChip1024()

	var cases []detCase
	threads := fpga.Clusters * fpga.TCUsPerCluster
	for _, g := range []workloads.TableIGroup{
		workloads.ParallelMemory, workloads.ParallelCompute,
		workloads.SerialMemory, workloads.SerialCompute,
	} {
		work := 8
		if g == workloads.SerialMemory || g == workloads.SerialCompute {
			work = 400
		}
		cases = append(cases, detCase{name: "tableI-" + g.Name(), src: workloads.TableI(g, threads, work), cfg: fpga})
	}

	comp, _ := workloads.Compaction(256, 0.3, 7)
	cases = append(cases, detCase{name: "compaction", src: comp, cfg: fpga})
	red, _, _ := workloads.Reduction(512)
	cases = append(cases, detCase{name: "reduction", src: red, cfg: fpga})
	vec, _, _ := workloads.VecAdd(512)
	cases = append(cases, detCase{name: "vecadd", src: vec, cfg: fpga})
	mm, _ := workloads.MatMul(10)
	cases = append(cases, detCase{name: "matmul", src: mm, cfg: fpga})
	ps, _, _, _ := workloads.PrefixSum(256)
	cases = append(cases, detCase{name: "prefixsum", src: ps, cfg: fpga})
	g := workloads.RandomGraph(128, 6, 1)
	bfs, _ := workloads.BFS(256, 2048)
	cases = append(cases, detCase{name: "bfs", src: bfs, cfg: fpga, memmaps: []string{g.MemMap()}})

	// The asynchronous interconnect exercises the continuous-time package
	// path (per-port handshake times + deferred delivery scheduling).
	cases = append(cases, detCase{name: "vecadd-asyncICN", src: vec, cfg: async})
	// The 1024-TCU chip shards 64 clusters across the pool.
	cases = append(cases, detCase{name: "tableI-parmem-chip1024",
		src: workloads.TableI(workloads.ParallelMemory, chip.Clusters*chip.TCUsPerCluster, 4), cfg: chip})
	cases = append(cases, wideClusterCase())
	return cases
}

// wideClusterCase has more than 64 TCUs per cluster: the cluster's
// issue-side sets (running, stalled, shared-unit waiters and the stall
// calendar) span two words, so Cluster.Tick walks more than one.
func wideClusterCase() detCase {
	wide := xmtgo.ConfigFPGA64()
	wide.Clusters, wide.TCUsPerCluster = 2, 128
	return detCase{name: "tableI-parmem-wide-clusters",
		src: workloads.TableI(workloads.ParallelMemory, wide.Clusters*wide.TCUsPerCluster, 1), cfg: wide}
}

// workersRun is one run's observable artifacts: everything that the
// determinism contract promises is bit-identical across host worker counts.
type workersRun struct {
	res          *xmtgo.SimResult
	stats        *xmtgo.Stats
	out          string // program printf output
	trace        string // Chrome trace-event JSON
	counters     string // hardware performance counter report
	samples      string // interval-sampler JSONL time series
	countersJSON string // machine-readable counter snapshot
	prom         string // Prometheus text rendering of the final state
	raceReport   string // xmtsan report (race checking is on for every run)
	// windows is not part of that contract's artifacts — it describes host
	// scheduling and changes with the lookahead — but for one lookahead it
	// too must not depend on the worker count.
	windows engine.WindowStats
}

func runWorkers(t *testing.T, tc detCase, workers int) workersRun {
	t.Helper()
	prog, _, err := xmtgo.Build(tc.name+".c", tc.src, xmtgo.DefaultCompileOptions(), tc.memmaps...)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tc.cfg
	cfg.HostWorkers = workers
	// The xmtsan shadow checks and report are part of the determinism
	// contract too: byte-identical at any worker count.
	cfg.RaceCheck = true
	var out bytes.Buffer
	sys, err := xmtgo.NewSimulator(prog, cfg, &out)
	if err != nil {
		t.Fatal(err)
	}
	sys.SetEventLog(trace.NewEventLog())
	smp := metrics.Attach(sys, 500)
	res, err := sys.Run(2_000_000)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	smp.Finalize(res.Cycles, int64(res.Ticks), sys.Stats, sys.AliveTCUs())
	var tr, ctr bytes.Buffer
	if err := sys.EventLog().WriteChrome(&tr, sys.ChromeMeta()); err != nil {
		t.Fatalf("workers=%d: write chrome trace: %v", workers, err)
	}
	sys.Stats.ReportCounters(&ctr)
	var raceRep bytes.Buffer
	if err := sys.RaceDetector().WriteReport(&raceRep); err != nil {
		t.Fatalf("workers=%d: write race report: %v", workers, err)
	}
	return workersRun{res: res, stats: sys.Stats, out: out.String(),
		trace: tr.String(), counters: ctr.String(),
		samples:      telemetrySamples(t, smp),
		countersJSON: telemetryCounters(t, sys, res),
		prom:         telemetryProm(smp, sys, res),
		raceReport:   raceRep.String(),
		windows:      sys.WindowStats()}
}

// telemetrySamples renders the sampler's JSONL artifact.
func telemetrySamples(t *testing.T, smp *metrics.Sampler) string {
	t.Helper()
	var b bytes.Buffer
	if err := metrics.WriteJSONL(&b, smp.Header(), smp.Samples()); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// telemetryCounters renders the -counters-json artifact.
func telemetryCounters(t *testing.T, sys *xmtgo.Simulator, res *xmtgo.SimResult) string {
	t.Helper()
	var b bytes.Buffer
	if err := sys.Stats.Snapshot(res.Cycles, int64(res.Ticks)).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// telemetryProm renders the /metrics text for the run's final state.
func telemetryProm(smp *metrics.Sampler, sys *xmtgo.Simulator, res *xmtgo.SimResult) string {
	samples := smp.Samples()
	var b bytes.Buffer
	metrics.RenderProm(&b, &metrics.Published{
		Status: metrics.Status{
			Cycle: res.Cycles, Ticks: int64(res.Ticks), Instrs: res.Instrs,
			AliveTCUs: sys.AliveTCUs(), Done: true,
		},
		Counters: sys.Stats.Snapshot(res.Cycles, int64(res.Ticks)),
		Sample:   &samples[len(samples)-1],
	})
	return b.String()
}

func TestHostParallelDeterminism(t *testing.T) {
	for _, tc := range determinismCorpus(t) {
		t.Run(tc.name, func(t *testing.T) {
			ref := runWorkers(t, tc, 1)
			if !ref.res.Halted {
				t.Fatalf("serial run did not halt (cycles=%d)", ref.res.Cycles)
			}
			// 2 and 3 shard unevenly across 64/8 clusters; 4 evenly.
			for _, w := range []int{2, 3, 4} {
				r := runWorkers(t, tc, w)
				if *r.res != *ref.res {
					t.Errorf("workers=%d: result %+v != serial %+v", w, *r.res, *ref.res)
				}
				if r.out != ref.out {
					t.Errorf("workers=%d: program output diverged:\n%q\nvs serial\n%q", w, r.out, ref.out)
				}
				if !reflect.DeepEqual(r.stats, ref.stats) {
					t.Errorf("workers=%d: statistics diverged from serial", w)
				}
				if r.trace != ref.trace {
					t.Errorf("workers=%d: Chrome trace JSON diverged from serial (%d vs %d bytes)",
						w, len(r.trace), len(ref.trace))
				}
				if r.counters != ref.counters {
					t.Errorf("workers=%d: counter report diverged from serial:\n%s\nvs serial\n%s",
						w, r.counters, ref.counters)
				}
				if r.samples != ref.samples {
					t.Errorf("workers=%d: interval-sample JSONL diverged from serial (%d vs %d bytes)",
						w, len(r.samples), len(ref.samples))
				}
				if r.countersJSON != ref.countersJSON {
					t.Errorf("workers=%d: counters JSON diverged from serial", w)
				}
				if r.prom != ref.prom {
					t.Errorf("workers=%d: Prometheus rendering diverged from serial:\n%s\nvs serial\n%s",
						w, r.prom, ref.prom)
				}
				if r.raceReport != ref.raceReport {
					t.Errorf("workers=%d: xmtsan report diverged from serial:\n%s\nvs serial\n%s",
						w, r.raceReport, ref.raceReport)
				}
			}
		})
	}
}

// TestObserverDoesNotPerturb holds the issue-side shortcuts of an
// unobserved cluster — shared-unit waiters accounted without a visit — to
// the observed run, which visits every retry: the event log is the only
// difference between the two runs, and it must not change what executes.
// The other determinism gates attach the event log to every run they
// compare, so without this test nothing compares the unobserved path.
func TestObserverDoesNotPerturb(t *testing.T) {
	run := func(t *testing.T, tc detCase, observed bool) (*xmtgo.SimResult, *xmtgo.Stats, string, string) {
		t.Helper()
		prog, _, err := xmtgo.Build(tc.name+".c", tc.src, xmtgo.DefaultCompileOptions(), tc.memmaps...)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		sys, err := xmtgo.NewSimulator(prog, tc.cfg, &out)
		if err != nil {
			t.Fatal(err)
		}
		if observed {
			sys.SetEventLog(trace.NewEventLog())
		}
		res, err := sys.Run(2_000_000)
		if err != nil {
			t.Fatalf("observed=%v: %v", observed, err)
		}
		return res, sys.Stats, out.String(), telemetryCounters(t, sys, res)
	}
	for _, tc := range determinismCorpus(t) {
		t.Run(tc.name, func(t *testing.T) {
			res, st, out, ctr := run(t, tc, false)
			ores, ost, oout, octr := run(t, tc, true)
			if *res != *ores {
				t.Errorf("result %+v, observed %+v", *res, *ores)
			}
			if !reflect.DeepEqual(st, ost) {
				t.Error("statistics diverged from the observed run")
			}
			if out != oout {
				t.Errorf("program output %q, observed %q", out, oout)
			}
			if ctr != octr {
				t.Errorf("counters JSON diverged from the observed run:\n%s\nvs observed\n%s", ctr, octr)
			}
		})
	}
}
