package cycle

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"xmtgo/internal/asm"
	"xmtgo/internal/bitset"
	"xmtgo/internal/config"
	"xmtgo/internal/sim/checkpoint"
	"xmtgo/internal/sim/funcmodel"
)

func members(a bitset.Set) []int {
	var out []int
	for i := a.Next(0); i >= 0; i = a.Next(i + 1) {
		out = append(out, i)
	}
	return out
}

// memKernelSrc is Table I's parallel-memory kernel — the workload of
// TestOptimisticRollbackOccurs, restated because internal/workloads imports
// this package — between two serial sections, so cluster ports, the master
// port, every arrival queue and every module see traffic in one run.
func memKernelSrc(threads int) string {
	n := threads * 8
	return fmt.Sprintf(`
int A[%d];
int sink = 0;
int main() {
    int k, acc = 0;
    for (k = 0; k < 48; k++) {
        A[(k * 53) %% %d] = k + 1;
    }
    spawn(0, %d) {
        int i;
        int s = 0;
        for (i = 0; i < 8; i++) {
            s += A[($ * 37 + i * 61) %% %d];
        }
        psm(s, sink);
    }
    for (k = 0; k < 48; k++) {
        acc += A[(k * 97) %% %d];
        A[(k * 89 + 13) %% %d] = acc;
    }
    print_int(sink + acc);
    return 0;
}`, n, n, threads-1, n, n, n)
}

func compileKernel(t *testing.T, threads int) (*asm.Program, string) {
	t.Helper()
	prog := compileC(t, memKernelSrc(threads))
	var out bytes.Buffer
	m, err := funcmodel.New(prog, 1<<20, &out)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(0); err != nil || !m.Halted {
		t.Fatalf("functional oracle: halted=%v err=%v", m.Halted, err)
	}
	return prog, out.String()
}

// checkActiveSets is the invariant: every non-empty queue of the memory
// system has its bit set (a set bit over an empty queue is legal), and every
// TCU a cluster must visit again is where its tick will find it. A
// queue outside its set, or a stalled TCU off the stall calendar, is never
// visited again — the hang this test hunts.
func checkActiveSets(t *testing.T, s *System) {
	t.Helper()
	now := s.Sched.Now()
	for i, c := range s.clusters {
		if len(c.sendQ) > 0 && !s.icn.ports.Has(i) {
			t.Fatalf("t=%d: cluster %d holds %d packages outside icn.ports", now, i, len(c.sendQ))
		}
		checkCalendar(t, c)
	}
	if len(s.master.sendQ) > 0 && !s.icn.ports.Has(len(s.clusters)) {
		t.Fatalf("t=%d: master holds %d packages outside icn.ports", now, len(s.master.sendQ))
	}
	for m, q := range s.icn.arrival {
		if len(q) > 0 && !s.icn.arriving.Has(m) {
			t.Fatalf("t=%d: %d packages in flight to module %d outside icn.arriving", now, len(q), m)
		}
	}
	for m, cm := range s.modules {
		if len(cm.serviceQ) > cm.head && !s.cacheActive.Has(m) {
			t.Fatalf("t=%d: module %d queues %d requests outside cacheActive", now, m, len(cm.serviceQ)-cm.head)
		}
	}
}

// checkCalendar asserts a cluster's issue-side sets: setRunning is
// exactly its running TCUs and setStalled its stalled ones; each stalled TCU
// has a ring bit that the next ticks pop no later than its stall ends;
// every shared-unit waiter is running; poolNext is each pool's earliest
// free cycle.
func checkCalendar(t *testing.T, c *Cluster) {
	t.Helper()
	now := c.sys.Sched.Now()
	for _, u := range c.tcus {
		w, bit := u.local>>6, uint64(1)<<(uint(u.local)&63)
		has := func(k int) bool { return c.issueSets[w][k]&bit != 0 }
		if running := u.state == tcuRunning; running != has(setRunning) {
			t.Fatalf("t=%d: TCU %d in state %d, running bit %v", now, u.id, u.state, !running)
		}
		if (has(setWaiting) || has(setWaiting+1)) && u.state != tcuRunning {
			t.Fatalf("t=%d: TCU %d waits on a shared unit in state %d", now, u.id, u.state)
		}
		stalled := u.state == tcuStalled
		if stalled != has(setStalled) {
			t.Fatalf("t=%d: TCU %d in state %d, stalled bit %v", now, u.id, u.state, !stalled)
		}
		if !stalled {
			continue
		}
		armed := false
		for k := c.lastTick + 1; k <= min(u.stallUntil, c.lastTick+stallRingSize-1); k++ {
			armed = armed || c.stallRing[w][k&(stallRingSize-1)]&bit != 0
		}
		if !armed {
			t.Fatalf("t=%d: TCU %d stalled until cycle %d has no ring bit in (%d, %d]",
				now, u.id, u.stallUntil, c.lastTick, min(u.stallUntil, c.lastTick+stallRingSize-1))
		}
	}
	for p := range c.poolNext {
		if m := slices.Min(c.pool(p)); c.poolNext[p] != m {
			t.Fatalf("t=%d: cluster %d pool %d: poolNext %d, earliest free unit %d", now, c.id, p, c.poolNext[p], m)
		}
	}
}

// stepRun is System.Run with the invariant asserted after every event.
func stepRun(t *testing.T, s *System, after func()) {
	t.Helper()
	stepRunFor(t, s, 10_000_000, after)
}

// stepRunFor is stepRun for System.Run(maxCycles).
func stepRunFor(t *testing.T, s *System, maxCycles int64, after func()) {
	t.Helper()
	defer s.pool.Close()
	s.start(maxCycles)
	for s.Sched.Step() {
		checkActiveSets(t, s)
		if after != nil {
			after()
		}
	}
	if s.err != nil {
		t.Fatal(s.err)
	}
}

type setPreset struct {
	name string
	cfg  config.Config
}

func setPresets() []setPreset {
	wide := config.FPGA64() // multi-word sets: 129 ports, 128 modules
	wide.Name, wide.Clusters, wide.TCUsPerCluster, wide.CacheModules = "wide128", 128, 2, 128
	wide96 := config.FPGA64() // multi-word issue-side sets: one full word and a half
	wide96.Name, wide96.Clusters, wide96.TCUsPerCluster = "wide96", 2, 96
	ps := []setPreset{{"fpga64", config.FPGA64()}, {"chip1024", config.Chip1024()}, {"wide128", wide}, {"wide96", wide96}}
	for i := range ps {
		ps[i].cfg.MemBytes = 1 << 20 // the kernel needs 32 KiB; building a system zeroes all of it
	}
	return ps
}

func TestActiveSetInvariant(t *testing.T) {
	variants := []struct {
		name string
		mod  func(*config.Config)
	}{
		{"derived", func(*config.Config) {}},
		{"lookahead1", func(c *config.Config) { c.Lookahead = 1 }},
		{"async", func(c *config.Config) { c.ICNAsync = true }},
		{"optimistic", func(c *config.Config) { c.EngineMode = config.EngineOptimistic }},
		{"workers2", func(c *config.Config) { c.HostWorkers = 2 }},
		{"faults", func(c *config.Config) {
			c.FaultPlan = "icndup:6@30-1500;icndrop:4x4@30-1500;icndelay:4x40@30-1500;cachestall:48x150@30-1500"
			c.FaultSeed = 7
		}},
	}
	for _, p := range setPresets() {
		prog, want := compileKernel(t, p.cfg.TCUs())
		for _, v := range variants {
			t.Run(p.name+"/"+v.name, func(t *testing.T) {
				cfg := p.cfg
				v.mod(&cfg)
				var out bytes.Buffer
				s, err := New(prog, cfg, &out)
				if err != nil {
					t.Fatal(err)
				}
				stalledWithWork := false
				var watchStalls func()
				if v.name == "faults" {
					watchStalls = func() {
						for m, cm := range s.modules {
							if len(cm.serviceQ) > cm.head && s.Sched.Now() < cm.stalledUntil && s.cacheActive.Has(m) {
								stalledWithWork = true
							}
						}
					}
				}
				stepRun(t, s, watchStalls)
				// The same configuration under plain Run: stepping must not
				// have changed what executes.
				var refOut bytes.Buffer
				ref, err := New(prog, cfg, &refOut)
				if err != nil {
					t.Fatal(err)
				}
				if res, err := ref.Run(10_000_000); err != nil || !res.Halted {
					t.Fatalf("reference run: %+v, %v", res, err)
				}
				if !s.halted || out.String() != want || refOut.String() != want {
					t.Fatalf("halted=%v printed %q (Run printed %q), want %q", s.halted, out.String(), refOut.String(), want)
				}
				if s.Sched.Executed != ref.Sched.Executed {
					t.Fatalf("stepped run executed %d events, Run %d", s.Sched.Executed, ref.Sched.Executed)
				}
				st := s.Stats
				switch v.name {
				case "optimistic":
					// A rollback truncates sendQ under a set bit.
					if s.Rollbacks() == 0 {
						t.Error("no rollback occurred; the stale-membership path went unexercised")
					}
				case "faults":
					if st.ICNDupFaults == 0 || st.ICNDropFaults == 0 || st.CacheStallFaults == 0 {
						t.Errorf("fault plan not applied: dup=%d drop=%d stall=%d", st.ICNDupFaults, st.ICNDropFaults, st.CacheStallFaults)
					}
					if !stalledWithWork {
						t.Error("no stalled module ever held requests; the stall-keeps-membership path went unexercised")
					}
				}
			})
		}
	}
}

// TestActiveSetCheckpointResume chops the run at periodic checkpoints: a
// system rebuilt by RestoreState starts with every queue empty, so it has no
// membership to rebuild — asserted — and must run on under the invariant.
func TestActiveSetCheckpointResume(t *testing.T) {
	for _, p := range setPresets() {
		t.Run(p.name, func(t *testing.T) {
			prog, want := compileKernel(t, p.cfg.TCUs())
			var out strings.Builder
			var st *checkpoint.State
			segments := 0
			for {
				var seg bytes.Buffer
				s, err := New(prog, p.cfg, &seg)
				if err != nil {
					t.Fatal(err)
				}
				if st != nil {
					if err := s.RestoreState(st); err != nil {
						t.Fatal(err)
					}
					for _, set := range []bitset.Set{s.icn.ports, s.icn.arriving, s.cacheActive} {
						if m := members(set); len(m) != 0 {
							t.Fatalf("restored system has members %v", m)
						}
					}
					for _, cm := range s.modules {
						if len(cm.serviceQ) != 0 {
							t.Fatal("restored system has a non-empty service queue")
						}
					}
				}
				s.CheckpointEvery(150)
				stepRun(t, s, nil)
				out.WriteString(seg.String())
				segments++
				if s.halted {
					break
				}
				if !s.checkpointed || segments > 10_000 {
					t.Fatalf("segment %d stopped without halt or checkpoint", segments)
				}
				st = s.Capture()
			}
			if segments < 3 {
				t.Fatalf("only %d segments; the checkpoint cadence never fired", segments)
			}
			if out.String() != want {
				t.Fatalf("printed %q over %d segments, want %q", out.String(), segments, want)
			}
		})
	}
}

// TestActiveSetReentry is the hang in miniature: the ICN drains the master
// port and drops it from the set, and a package appended to that port in the
// same tick must put it back and be injected on the next edge.
func TestActiveSetReentry(t *testing.T) {
	s, _ := buildSys(t, busyLoop, config.FPGA64())
	port := len(s.clusters)
	in := &s.Prog.Text[0]
	s.master.pendingNB = 2
	send := func() {
		if !s.master.send(PkgStoreNB, in, 64, 1, s.Sched.Now()) {
			t.Fatal("master send refused")
		}
	}
	send()
	if !s.icn.ports.Has(port) {
		t.Fatal("Master.send did not enter the port")
	}
	s.Sched.Step() // the ICN edge: injects, finds the queue empty, drops the port
	if s.Stats.ICNTraversals != 1 || s.icn.ports.Has(port) || len(s.master.sendQ) != 0 {
		t.Fatalf("after the first edge: traversals=%d member=%v queued=%d",
			s.Stats.ICNTraversals, s.icn.ports.Has(port), len(s.master.sendQ))
	}
	first := s.Sched.Now()
	send() // same tick as the clear
	checkActiveSets(t, s)
	for s.Stats.ICNTraversals < 2 && s.Sched.Step() {
	}
	if s.Stats.ICNTraversals != 2 {
		t.Fatal("the package appended after the clear was never injected")
	}
	if want := first + s.Cfg.ICNPeriod; s.Sched.Now() != want {
		t.Fatalf("second injection at t=%d, want the next ICN edge t=%d", s.Sched.Now(), want)
	}
	for s.master.pendingNB > 0 && s.Sched.Step() {
	}
	if s.master.pendingNB != 0 || len(s.master.pkgFree) != 2 {
		t.Fatalf("pendingNB=%d, %d packages back on the master freelist (want 0, 2)", s.master.pendingNB, len(s.master.pkgFree))
	}
}

// mduSpawn is an MDU-bound spawn: 256 virtual threads of `ps; chkid; div;
// mul; div; addu; j` on a machine with one MDU per cluster, so most TCU
// cycles are spent stalled on a unit or refused one.
const mduSpawn = `
        .text
main:   li    $a0, 0
        li    $a1, 255
        li    $t1, 7
        bcast $t1
        spawn $a0, $a1
L:      addiu $tid, $zero, 1
        ps    $tid, g63
        chkid $tid
        div   $t2, $tid, $t1
        mul   $t3, $t2, $t1
        div   $t4, $t3, $t1
        addu  $v0, $v0, $t4
        j     L
        join
        sys   0
`

// roSpawn mixes read-only-cache hits with divides, so stalls of two lengths
// share the stall calendar.
const roSpawn = `
        .data
k:      .word 42
        .text
main:   la    $t0, k
        bcast $t0
        li    $t1, 7
        bcast $t1
        li    $a0, 0
        li    $a1, 255
        spawn $a0, $a1
L:      addiu $tid, $zero, 1
        ps    $tid, g63
        chkid $tid
        lwro  $t2, 0($t0)
        div   $t3, $tid, $t1
        lwro  $t4, 0($t0)
        addu  $t5, $t2, $t4
        j     L
        join
        sys   0
`

// periodCycler is a DVFS plug-in that moves the cluster clock through
// periods 8, 13 and 24 every interval cycles. Each change re-bases the clock
// under the cluster edge already pending on the old grid, so the next ticks
// skip or repeat cycle numbers.
func periodCycler(interval int64) ActivityPlugin {
	n := 0
	return pluginFunc{name: "dvfs", interval: interval, fn: func(_ *Snapshot, ctl *Control) {
		n++
		if err := ctl.SetPeriod("cluster", []int64{8, 13, 24}[n%3]); err != nil {
			panic(err)
		}
	}}
}

// TestStallCalendar runs stall-heavy spawns under the invariant check after
// every event and pins each run's Result, FPUWaitCycles, BusyCycles and
// event count to the values of the simulator that visited every stalled TCU
// every cycle: the MDU-bound spawn, the same on the 1024-TCU chip,
// read-only-cache stalls longer than the ring, and the MDU spawn under a
// plug-in that re-bases the cluster clock every k cycles (the case that
// needs the ring to catch up on skipped cycle numbers). The rows on clusters
// wider than 64 TCUs pin the full scan that ran them before the issue-side
// sets went multi-word.
func TestStallCalendar(t *testing.T) {
	type want struct {
		res      Result
		fpuWait  uint64 // summed over clusters
		busy     uint64 // BusyCycles, summed over clusters
		executed uint64 // Sched.Executed
	}
	type calendarCase struct {
		name   string
		src    string
		cfg    config.Config
		plugin ActivityPlugin
		want   want
	}
	rolong := config.FPGA64()
	rolong.ROCacheLatency = 40 // past the ring: re-armed at its horizon
	wide := func(base config.Config, clusters, tcus int) config.Config {
		base.Clusters, base.TCUsPerCluster = clusters, tcus
		return base
	}
	cases := []calendarCase{
		{"mdu", mduSpawn, config.FPGA64(), nil,
			want{Result{Cycles: 1195, Ticks: 9560, Instrs: 2246, Halted: true}, 54720, 9308, 964}},
		{"mdu-chip1024", mduSpawn, config.Chip1024(), nil,
			want{Result{Cycles: 341, Ticks: 2728, Instrs: 5126, Halted: true}, 32256, 5344, 2661}},
		{"rocache-past-ring", roSpawn, rolong, nil,
			want{Result{Cycles: 630, Ticks: 5040, Instrs: 2249, Halted: true}, 6464, 4592, 1391}},
		{"mdu-1x128", mduSpawn, wide(config.FPGA64(), 1, 128), nil,
			want{Result{Cycles: 9256, Ticks: 74048, Instrs: 2438, Halted: true}, 876224, 9223, 2700}},
		{"mdu-2x96", mduSpawn, wide(config.FPGA64(), 2, 96), nil,
			want{Result{Cycles: 4654, Ticks: 37232, Instrs: 2630, Halted: true}, 546144, 9240, 2513}},
		{"rocache-past-ring-2x96", roSpawn, wide(rolong, 2, 96), nil,
			want{Result{Cycles: 2155, Ticks: 17240, Instrs: 5015, Halted: true}, 230719, 4236, 2584}},
		{"dvfs-every3-2x96", mduSpawn, wide(config.FPGA64(), 2, 96), periodCycler(3),
			want{Result{Cycles: 4643, Ticks: 69640, Instrs: 2630, Halted: true}, 547317, 9249, 10220}},
	}
	for _, d := range []struct {
		k    int64
		want want
	}{
		{1, want{Result{Cycles: 1226, Ticks: 18392, Instrs: 2246, Halted: true}, 38076, 6488, 6375}},
		{3, want{Result{Cycles: 1178, Ticks: 17664, Instrs: 2246, Halted: true}, 55090, 9304, 2937}},
		{5, want{Result{Cycles: 1199, Ticks: 17984, Instrs: 2246, Halted: true}, 56124, 9460, 2191}},
		{7, want{Result{Cycles: 1208, Ticks: 18072, Instrs: 2246, Halted: true}, 56050, 9480, 1770}},
		{11, want{Result{Cycles: 1196, Ticks: 17888, Instrs: 2246, Halted: true}, 55436, 9372, 1458}},
	} {
		cases = append(cases, calendarCase{fmt.Sprint("dvfs-every", d.k), mduSpawn, config.FPGA64(), periodCycler(d.k), d.want})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.MemBytes = 1 << 20
			s, _ := buildSys(t, tc.src, tc.cfg)
			if tc.plugin != nil {
				s.AddActivityPlugin(tc.plugin)
			}
			stepRun(t, s, nil)
			res, err := s.result(10_000_000)
			if err != nil {
				t.Fatal(err)
			}
			got := want{res: *res, executed: s.Sched.Executed}
			for _, cs := range s.Stats.Cluster {
				got.fpuWait += cs.FPUWaitCycles
				got.busy += cs.BusyCycles
			}
			if got != tc.want {
				t.Errorf("got %+v, want %+v", got, tc.want)
			}
			if tc.src == roSpawn && s.Stats.ROHits == 0 {
				t.Error("no read-only cache hit: the long stall went unexercised")
			}
		})
	}
}
