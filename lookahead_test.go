// Window-boundary determinism: the bounded-lookahead engine (multi-cycle
// windows, docs/PERF.md) must be architecturally invisible. Every artifact
// the host-parallel determinism contract covers — results, program output,
// statistics, Chrome traces, telemetry, race reports — must be byte-identical
// across every combination of host worker count, lookahead window size
// (one cycle, a deliberately awkward odd width, the derived window) and the
// optimistic rollback mode. Checkpoint/resume must land on the same
// architectural state even when the checkpoint period does not divide the
// window width, i.e. when the stop falls mid-window.
package xmtgo_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"xmtgo"
	"xmtgo/internal/sim/engine"
	"xmtgo/internal/workloads"
)

// lookaheadCorpus is a focused subset of the determinism corpus: the two
// parallel Table I groups stress the cache/ICN request loop (short windows,
// frequent truncation), compaction adds data-dependent ps traffic, the
// chip1024 case exercises window commits across 64 sharded clusters, and the
// wide-cluster case the full-scan tick path of clusters above 64 TCUs.
func lookaheadCorpus(t *testing.T) []detCase {
	t.Helper()
	fpga := xmtgo.ConfigFPGA64()
	chip := xmtgo.ConfigChip1024()
	threads := fpga.Clusters * fpga.TCUsPerCluster

	comp, _ := workloads.Compaction(256, 0.3, 7)
	return []detCase{
		{name: "tableI-parmem", src: workloads.TableI(workloads.ParallelMemory, threads, 8), cfg: fpga},
		{name: "tableI-parcomp", src: workloads.TableI(workloads.ParallelCompute, threads, 8), cfg: fpga},
		{name: "compaction", src: comp, cfg: fpga},
		{name: "parmem-chip1024",
			src: workloads.TableI(workloads.ParallelMemory, chip.Clusters*chip.TCUsPerCluster, 4), cfg: chip},
		wideClusterCase(),
	}
}

// engineVariants enumerates the engine configurations under test. lookahead=1
// makes every window a single cycle and serves as the reference;
// lookahead=3 forces windows that never align with the derived width;
// lookahead=0 derives the window from the minimum cross-cluster latency;
// optimistic free-runs and rolls back on overrun.
type engineVariant struct {
	name      string
	lookahead int
	mode      string
}

func engineVariants() []engineVariant {
	return []engineVariant{
		{"single-cycle", 1, ""},
		{"window-3", 3, ""},
		{"window-derived", 0, ""},
		{"optimistic", 0, "optimistic"},
	}
}

func TestLookaheadDeterminism(t *testing.T) {
	for _, tc := range lookaheadCorpus(t) {
		t.Run(tc.name, func(t *testing.T) {
			refCase := tc
			refCase.cfg.Lookahead = 1
			ref := runWorkers(t, refCase, 1)
			if !ref.res.Halted {
				t.Fatalf("reference run did not halt (cycles=%d)", ref.res.Cycles)
			}
			for _, v := range engineVariants() {
				var windows engine.WindowStats
				for _, w := range []int{1, 2, 4} {
					vc := tc
					vc.cfg.Lookahead = v.lookahead
					vc.cfg.EngineMode = v.mode
					r := runWorkers(t, vc, w)
					id := fmt.Sprintf("%s/workers=%d", v.name, w)
					// The cut into windows depends on the lookahead, never
					// on the worker count.
					if w == 1 {
						windows = r.windows
					} else if r.windows != windows {
						t.Errorf("%s: window counts %v differ from one worker's %v", id, r.windows, windows)
					}
					if *r.res != *ref.res {
						t.Errorf("%s: result %+v != reference %+v", id, *r.res, *ref.res)
					}
					if r.out != ref.out {
						t.Errorf("%s: program output diverged:\n%q\nvs reference\n%q", id, r.out, ref.out)
					}
					if !reflect.DeepEqual(r.stats, ref.stats) {
						t.Errorf("%s: statistics diverged from reference", id)
					}
					if r.trace != ref.trace {
						t.Errorf("%s: Chrome trace JSON diverged (%d vs %d bytes)",
							id, len(r.trace), len(ref.trace))
					}
					if r.counters != ref.counters {
						t.Errorf("%s: counter report diverged", id)
					}
					if r.samples != ref.samples {
						t.Errorf("%s: interval-sample JSONL diverged (%d vs %d bytes)",
							id, len(r.samples), len(ref.samples))
					}
					if r.countersJSON != ref.countersJSON {
						t.Errorf("%s: counters JSON diverged", id)
					}
					if r.prom != ref.prom {
						t.Errorf("%s: Prometheus rendering diverged", id)
					}
					if r.raceReport != ref.raceReport {
						t.Errorf("%s: xmtsan report diverged", id)
					}
				}
			}
		})
	}
}

// TestOptimisticRollbackOccurs pins down that the optimistic determinism
// coverage above is not vacuous: on a memory-bound workload the free-running
// clusters must actually overrun arriving cache responses and roll back, and
// the run must still match the lockstep engine cycle-for-cycle.
func TestOptimisticRollbackOccurs(t *testing.T) {
	cfg := xmtgo.ConfigFPGA64()
	threads := cfg.Clusters * cfg.TCUsPerCluster
	src := workloads.TableI(workloads.ParallelMemory, threads, 8)
	prog, _, err := xmtgo.Build("parmem.c", src, xmtgo.DefaultCompileOptions())
	if err != nil {
		t.Fatal(err)
	}

	run := func(mode string) (*xmtgo.SimResult, uint64) {
		c := cfg
		c.EngineMode = mode
		sys, err := xmtgo.NewSimulator(prog, c, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(2_000_000)
		if err != nil || !res.Halted {
			t.Fatalf("mode=%q: halted=%v err=%v", mode, res != nil && res.Halted, err)
		}
		return res, sys.Rollbacks()
	}

	wRes, wRoll := run(xmtgo.EngineWindowed)
	oRes, oRoll := run(xmtgo.EngineOptimistic)
	if wRoll != 0 {
		t.Errorf("windowed engine reported %d rollbacks; conservative windows never roll back", wRoll)
	}
	if oRoll == 0 {
		t.Error("optimistic run reported zero rollbacks; the rollback path went unexercised")
	}
	if *oRes != *wRes {
		t.Errorf("optimistic result %+v != windowed %+v", *oRes, *wRes)
	}
}

// TestLookaheadCheckpointResume chops a run into periodic-checkpoint segments
// whose period is coprime to the lookahead window, so every stop lands
// mid-window, and verifies the resumed runs reach the same architectural
// state as an uninterrupted single-cycle run — for the derived conservative
// window and for the optimistic engine.
func TestLookaheadCheckpointResume(t *testing.T) {
	red, _, _ := workloads.Reduction(512)
	prog, _, err := xmtgo.Build("reduction.c", red, xmtgo.DefaultCompileOptions())
	if err != nil {
		t.Fatal(err)
	}

	base := xmtgo.ConfigFPGA64()
	base.Lookahead = 1
	var refOut bytes.Buffer
	ref, err := xmtgo.NewSimulator(prog, base, &refOut)
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Run(10_000_000)
	if err != nil || !refRes.Halted {
		t.Fatalf("reference run: halted=%v err=%v", refRes != nil && refRes.Halted, err)
	}

	for _, v := range []engineVariant{
		{"window-derived", 0, ""},
		{"optimistic", 0, "optimistic"},
	} {
		t.Run(v.name, func(t *testing.T) {
			cfg := xmtgo.ConfigFPGA64()
			cfg.Lookahead = v.lookahead
			cfg.EngineMode = v.mode
			// Derived window for fpga64 is an even number of cycles; an odd
			// checkpoint period guarantees stops fall mid-window. Keep it
			// well under the run length so several segments occur.
			period := refRes.Cycles/5 | 1

			var out bytes.Buffer
			segments := 0
			var st *xmtgo.Checkpoint
			for {
				sys, err := xmtgo.NewSimulator(prog, cfg, &out)
				if err != nil {
					t.Fatal(err)
				}
				if st != nil {
					if err := sys.RestoreState(st); err != nil {
						t.Fatalf("segment %d: restore: %v", segments, err)
					}
				}
				sys.CheckpointEvery(period)
				res, err := sys.Run(10_000_000)
				if err != nil {
					t.Fatalf("segment %d: %v", segments, err)
				}
				segments++
				if res.Checkpoint {
					var buf bytes.Buffer
					if err := xmtgo.SaveCheckpoint(&buf, sys.Capture()); err != nil {
						t.Fatal(err)
					}
					if st, err = xmtgo.LoadCheckpoint(&buf); err != nil {
						t.Fatal(err)
					}
					continue
				}
				if !res.Halted {
					t.Fatalf("segment %d stopped without halting: %+v", segments, res)
				}
				if out.String() != refOut.String() {
					t.Errorf("output %q, reference %q", out.String(), refOut.String())
				}
				if sys.Machine.G != ref.Machine.G {
					t.Error("global registers diverged from the uninterrupted run")
				}
				if *sys.MasterContext() != *ref.MasterContext() {
					t.Error("master context diverged from the uninterrupted run")
				}
				if !bytes.Equal(sys.Machine.Mem, ref.Machine.Mem) {
					t.Error("memory diverged from the uninterrupted run")
				}
				break
			}
			if segments < 2 {
				t.Fatalf("run never hit a periodic checkpoint (%d segments); mid-window resume untested", segments)
			}
		})
	}
}
