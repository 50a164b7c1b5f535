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
	"io"
	"reflect"
	"strings"
	"testing"

	"xmtgo"
	"xmtgo/internal/isa"
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

// stopProgram spawns 1024 threads that each multiply in a loop, convert to
// float and store; thread 200 then runs STOP, which the test replaces with
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
	for _, tc := range []struct {
		stop, config, want string
	}{
		{"div $t8, $t3, $zero", "fpga64",
			"cycles=497 instrs=7289 halted=false master=7 tcu=[3227 1095 1243 935 169 168 224 221] err=" + divErr},
		{"div $t8, $t3, $zero", "chip1024",
			"cycles=158 instrs=29176 halted=false master=7 tcu=[12972 4240 4255 3745 648 604 1369 1336] err=" + divErr},
		{"sys 0", "fpga64",
			"cycles=486 instrs=7127 halted=true master=7 tcu=[3154 1070 1215 914 166 163 221 217] err=<nil>"},
		{"sys 0", "chip1024",
			"cycles=156 instrs=28697 halted=true master=7 tcu=[12776 4164 4161 3688 632 580 1360 1329] err=<nil>"},
	} {
		prog, err := xmtgo.Assemble("stop.s", strings.Replace(stopProgram, "STOP", tc.stop, 1))
		if err != nil {
			t.Fatal(err)
		}
		for _, la := range []int{1, 3, 0} {
			for _, w := range []int{1, 2} {
				for _, mode := range []string{xmtgo.EngineWindowed, xmtgo.EngineOptimistic} {
					for _, filtered := range []bool{false, true} {
						id := fmt.Sprintf("%s/%s/lookahead=%d/workers=%d/%s/filtered=%v",
							tc.stop, tc.config, la, w, mode, filtered)
						cfg, err := xmtgo.PresetConfig(tc.config)
						if err != nil {
							t.Fatal(err)
						}
						cfg.Lookahead, cfg.HostWorkers, cfg.EngineMode = la, w, mode
						sys, err := xmtgo.NewSimulator(prog, cfg, io.Discard)
						if err != nil {
							t.Fatal(err)
						}
						f := &unitFilter{}
						if filtered {
							sys.Stats.AddFilter(f)
						}
						res, err := sys.Run(1_000_000)
						var tcu [isa.NumUnits]uint64
						for i := range sys.Stats.Cluster {
							for u, n := range sys.Stats.Cluster[i].ByUnit {
								tcu[u] += n
							}
						}
						got := fmt.Sprintf("cycles=%d instrs=%d halted=%v master=%d tcu=%v err=%v",
							res.Cycles, res.Instrs, res.Halted, sys.Stats.MasterInstrs, tcu, err)
						if got != tc.want {
							t.Errorf("%s:\n got %s\nwant %s", id, got, tc.want)
						}
						if filtered && (f.tcu != tcu || f.master != sys.Stats.MasterByUnit) {
							t.Errorf("%s: filter saw tcu %v master %v, counters tcu %v master %v",
								id, f.tcu, f.master, tcu, sys.Stats.MasterByUnit)
						}
					}
				}
			}
		}
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
