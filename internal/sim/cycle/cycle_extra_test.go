package cycle

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"xmtgo/internal/asm"
	"xmtgo/internal/config"
	"xmtgo/internal/isa"
	"xmtgo/internal/sim/stats"
)

func buildSys(t testing.TB, src string, cfg config.Config) (*System, *bytes.Buffer) {
	t.Helper()
	u, err := asm.Parse("t.s", src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := asm.Assemble(u)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	sys, err := New(p, cfg, &out)
	if err != nil {
		t.Fatal(err)
	}
	return sys, &out
}

const busyLoop = `
        .text
main:   li   $t0, 2000
L:      addiu $t0, $t0, -1
        bgtz $t0, L
        sys  0
`

// TestArchitectureInventory asserts one component instance per solid box
// of the paper's Fig. 1: TCUs grouped into clusters with shared FPUs/MDUs
// and a read-only cache, the shared cache modules, DRAM ports, the ICN,
// the global prefix-sum unit, the spawn unit and the Master TCU.
func TestArchitectureInventory(t *testing.T) {
	cfg := config.FPGA64()
	sys, _ := buildSys(t, busyLoop, cfg)
	if len(sys.clusters) != cfg.Clusters {
		t.Fatalf("clusters = %d", len(sys.clusters))
	}
	for _, c := range sys.clusters {
		if len(c.tcus) != cfg.TCUsPerCluster {
			t.Fatalf("cluster %d has %d TCUs", c.id, len(c.tcus))
		}
		if c.nFPU != cfg.FPUsPerCluster || len(c.unitFreeAt)-c.nFPU != cfg.MDUsPerCluster {
			t.Fatal("shared unit counts wrong")
		}
		if c.ro == nil {
			t.Fatal("read-only cache missing")
		}
	}
	if len(sys.modules) != cfg.CacheModules {
		t.Fatalf("cache modules = %d", len(sys.modules))
	}
	if len(sys.dram.nextFree) != cfg.DRAMPorts {
		t.Fatal("DRAM ports wrong")
	}
	if sys.icn == nil || sys.ps == nil || sys.spawn == nil || sys.master == nil {
		t.Fatal("missing components")
	}
	// Macro-actor grouping: all clusters in one actor, all modules behind
	// one (the cache domain's single Cycler walks its active set).
	if sys.clusterMA.Len() != cfg.Clusters || sys.cacheMA.Len() != 1 || len(sys.cacheActive)*64 < cfg.CacheModules {
		t.Fatal("macro-actor grouping wrong")
	}
}

// TestAddressHashingPartition: every address maps to exactly one module,
// and the distribution over lines is roughly balanced (the LS-unit hashing
// that avoids hotspots).
func TestAddressHashingPartition(t *testing.T) {
	sys, _ := buildSys(t, busyLoop, config.FPGA64())
	counts := make([]int, len(sys.modules))
	const lines = 1 << 14
	for i := 0; i < lines; i++ {
		addr := uint32(i * 32)
		m := sys.moduleOf(addr)
		if m < 0 || m >= len(sys.modules) {
			t.Fatalf("module %d out of range", m)
		}
		if m2 := sys.moduleOf(addr + 31); m2 != m {
			t.Fatalf("same line maps to different modules: %d vs %d", m, m2)
		}
		counts[m]++
	}
	want := lines / len(counts)
	for m, c := range counts {
		if c < want/2 || c > want*2 {
			t.Fatalf("module %d holds %d lines (expected ~%d): hash unbalanced", m, c, want)
		}
	}
}

// dvfsProbe halves the cluster frequency at its first sample.
type dvfsProbe struct {
	interval int64
	samples  int
	slowed   bool
}

func (d *dvfsProbe) Name() string          { return "dvfs-probe" }
func (d *dvfsProbe) IntervalCycles() int64 { return d.interval }
func (d *dvfsProbe) Sample(snap *Snapshot, ctl *Control) {
	d.samples++
	if !d.slowed {
		if err := ctl.SetPeriod("cluster", 16); err != nil {
			panic(err)
		}
		d.slowed = true
	}
}

// TestActivityPluginDVFS: an activity plug-in samples at its interval and
// a frequency change actually slows the parallel section down.
func TestActivityPluginDVFS(t *testing.T) {
	spawnLoop := `
        .data
B:      .space 4096
        .text
main:   la    $t0, B
        bcast $t0
        li    $a0, 0
        li    $a1, 1023
        spawn $a0, $a1
L:      addiu $tid, $zero, 1
        ps    $tid, g63
        chkid $tid
        li    $t2, 60
W:      addiu $t2, $t2, -1
        bgtz  $t2, W
        j     L
        join
        sys   0
`
	base, _ := buildSys(t, spawnLoop, config.FPGA64())
	resBase, err := base.Run(10_000_000)
	if err != nil {
		t.Fatal(err)
	}

	slowed, _ := buildSys(t, spawnLoop, config.FPGA64())
	probe := &dvfsProbe{interval: 50}
	slowed.AddActivityPlugin(probe)
	resSlow, err := slowed.Run(10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if probe.samples == 0 {
		t.Fatal("plugin never sampled")
	}
	if resSlow.Ticks <= resBase.Ticks*13/10 {
		t.Fatalf("halving the cluster clock should stretch wall time: %d vs %d ticks",
			resSlow.Ticks, resBase.Ticks)
	}
}

// TestGatedDomainResumes: disabling the cluster domain stalls parallel
// progress; re-enabling it lets the program finish.
func TestGatedDomainResumes(t *testing.T) {
	sys, _ := buildSys(t, busyLoop, config.FPGA64())
	gated := false
	reEnabled := false
	sys.AddActivityPlugin(pluginFunc{
		name:     "gate",
		interval: 100,
		fn: func(snap *Snapshot, ctl *Control) {
			switch {
			case !gated:
				gated = true
				if err := ctl.Disable("master"); err != nil {
					t.Error(err)
				}
			case !reEnabled:
				reEnabled = true
				if err := ctl.Enable("master"); err != nil {
					t.Error(err)
				}
			}
		},
	})
	res, err := sys.Run(5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Fatalf("program did not finish after re-enable: %+v", res)
	}
	if !gated || !reEnabled {
		t.Fatal("gating sequence did not run")
	}
}

// TestGateWithLoadInFlight: package deliveries are scheduler events, not
// clock edges, so a load's response can arrive while the domain that issued
// it is gated off and has no period to count the wait in. A plug-in that
// toggles the gate every three cluster cycles makes that the common case —
// for the master in a serial loop of missing loads, and for the TCUs (cluster
// domain) inside a spawn. The same plug-in makes a cluster edge that was
// pending at the gate commit ps requests while the domain has no edges to
// pace them on (the "ps" case: they apply at arrival). The run must finish
// with the ungated run's output.
func TestGateWithLoadInFlight(t *testing.T) {
	cases := []struct{ name, domain, src string }{
		{"master", "master", `
        .data
A:      .space 8192
        .text
main:   la    $t0, A
        li    $t1, 64
        li    $v0, 7
L:      lw    $t2, 0($t0)
        addu  $v0, $v0, $t2
        addiu $t0, $t0, 128
        addiu $t1, $t1, -1
        bgtz  $t1, L
        sys   1
        sys   0
`},
		{"tcu", "cluster", `
        .data
A:      .space 8192
S:      .word 0
        .text
main:   la    $t0, A
        la    $t1, S
        bcast $t0
        bcast $t1
        li    $a0, 0
        li    $a1, 63
        fence
        spawn $a0, $a1
L:      addiu $tid, $zero, 1
        ps    $tid, g63
        chkid $tid
        sll   $t2, $tid, 7
        addu  $t3, $t0, $t2
        lw    $t4, 0($t3)
        addiu $t4, $t4, 1
        psm   $t4, 0($t1)
        j     L
        join
        lw    $v0, 0($t1)
        sys   1
        sys   0
`},
		{"ps", "cluster", `
        .data
S:      .word 0
        .text
main:   la    $t0, S
        bcast $t0
        li    $t1, 7
        bcast $t1
        li    $a0, 0
        li    $a1, 255
        spawn $a0, $a1
L:      addiu $tid, $zero, 1
        ps    $tid, g63
        chkid $tid
        div   $t2, $tid, $t1
        mul   $t3, $t2, $t1
        div   $t4, $t3, $t1
        psm   $t4, 0($t0)
        j     L
        join
        lw    $v0, 0($t0)
        sys   1
        sys   0
`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			plain, want := buildSys(t, c.src, config.FPGA64())
			if _, err := plain.Run(5_000_000); err != nil {
				t.Fatal(err)
			}
			sys, out := buildSys(t, c.src, config.FPGA64())
			toggles := 0
			sys.AddActivityPlugin(pluginFunc{
				name:     "gate",
				interval: 3,
				fn: func(snap *Snapshot, ctl *Control) {
					var err error
					if toggles++; toggles%2 == 1 {
						err = ctl.Disable(c.domain)
					} else {
						err = ctl.Enable(c.domain)
					}
					if err != nil {
						t.Error(err)
					}
				},
			})
			res, err := sys.Run(5_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Halted || out.String() != want.String() || out.Len() == 0 {
				t.Fatalf("gated run: halted=%v printed %q, ungated printed %q", res.Halted, out, want)
			}
			waited := sys.Stats.MasterMemWaitCycles
			if c.domain == "cluster" {
				waited = sys.Stats.Cluster[0].MemWaitCycles + sys.Stats.Cluster[0].PSWaitCycles
			}
			if toggles < 20 || waited == 0 {
				t.Fatalf("%d gate toggles, %d memory-wait cycles attributed: the path went unexercised", toggles, waited)
			}
		})
	}
}

type pluginFunc struct {
	name     string
	interval int64
	fn       func(*Snapshot, *Control)
}

func (p pluginFunc) Name() string                   { return p.name }
func (p pluginFunc) IntervalCycles() int64          { return p.interval }
func (p pluginFunc) Sample(s *Snapshot, c *Control) { p.fn(s, c) }

// TestCycleCheckpointResume: a sys checkpoint trap stops the simulation at
// a quiescent point; a fresh system restored from the capture finishes
// with the same result.
func TestCycleCheckpointResume(t *testing.T) {
	src := `
        .data
v:      .word 10
        .text
main:   lw    $t0, v
        sll   $t0, $t0, 1
        sw    $t0, v
        sys   5
        lw    $v0, v
        addiu $v0, $v0, 1
        sys   1
        sys   0
`
	sys1, out1 := buildSys(t, src, config.FPGA64())
	res1, err := sys1.Run(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !res1.Checkpoint {
		t.Fatalf("expected a checkpoint stop, got %+v", res1)
	}
	st := sys1.Capture()

	sys2, out2 := buildSys(t, src, config.FPGA64())
	if err := sys2.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	res2, err := sys2.Run(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Halted {
		t.Fatal("resumed run did not halt")
	}
	if out2.String() != "21" {
		t.Fatalf("resumed output %q, want 21", out2.String())
	}
	if res2.Cycles <= st.CycleOffset {
		t.Fatal("cycle counting must continue from the checkpoint offset")
	}
	_ = out1
}

// TestPsmQueueingAtModule: simultaneous psm operations on one base are
// queued at its cache module and applied atomically — the total is exact
// (paper §II-A: "multiple operations that arrive at the same cache module
// will be queued").
func TestPsmQueueingAtModule(t *testing.T) {
	src := `
        .data
total:  .word 0
        .text
main:   la    $t0, total
        bcast $t0
        li    $a0, 0
        li    $a1, 511
        fence
        spawn $a0, $a1
L:      addiu $tid, $zero, 1
        ps    $tid, g63
        chkid $tid
        addiu $t2, $zero, 3
        psm   $t2, 0($t0)
        j     L
        join
        lw    $v0, 0($t0)
        sys   1
        sys   0
`
	sys, out := buildSys(t, src, config.FPGA64())
	if _, err := sys.Run(20_000_000); err != nil {
		t.Fatal(err)
	}
	if out.String() != fmt.Sprint(512*3) {
		t.Fatalf("psm total %q, want %d", out.String(), 512*3)
	}
	if sys.Stats.PsmOps != 512 {
		t.Fatalf("psm count %d", sys.Stats.PsmOps)
	}
}

// TestSharedFPUContention: with one FPU per cluster, FPU-heavy parallel
// code serializes inside clusters; widening FPUsPerCluster speeds it up.
func TestSharedFPUContention(t *testing.T) {
	src := `
        .data
B:      .space 1024
        .text
main:   la    $t0, B
        bcast $t0
        li    $a0, 0
        li    $a1, 63
        spawn $a0, $a1
L:      addiu $tid, $zero, 1
        ps    $tid, g63
        chkid $tid
        cvt.s.w $t3, $tid
        add.s $t4, $t3, $t3
        mul.s $t4, $t4, $t3
        add.s $t4, $t4, $t3
        mul.s $t4, $t4, $t3
        cvt.w.s $t5, $t4
        sll   $t6, $tid, 2
        addu  $t6, $t0, $t6
        sw.nb $t5, 0($t6)
        j     L
        join
        sys   0
`
	narrow := config.FPGA64()
	narrow.FPUsPerCluster = 1
	wide := config.FPGA64()
	wide.FPUsPerCluster = 8

	s1, _ := buildSys(t, src, narrow)
	r1, err := s1.Run(10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := buildSys(t, src, wide)
	r2, err := s2.Run(10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cycles >= r1.Cycles {
		t.Fatalf("8 FPUs (%d cycles) should beat 1 FPU (%d cycles)", r2.Cycles, r1.Cycles)
	}
	if s1.Stats.Cluster[0].FPUWaitCycles == 0 {
		t.Fatal("expected FPU contention wait cycles with one FPU")
	}
}

// TestROCacheHits: repeated lwro to the same constant hits the cluster
// read-only cache after the first miss.
func TestROCacheHits(t *testing.T) {
	src := `
        .data
k:      .word 42
        .text
main:   la    $t0, k
        bcast $t0
        li    $a0, 0
        li    $a1, 63
        spawn $a0, $a1
L:      addiu $tid, $zero, 1
        ps    $tid, g63
        chkid $tid
        lwro  $t2, 0($t0)
        lwro  $t3, 0($t0)
        lwro  $t4, 0($t0)
        j     L
        join
        sys   0
`
	sys, _ := buildSys(t, src, config.FPGA64())
	if _, err := sys.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	if sys.Stats.ROHits == 0 {
		t.Fatal("no read-only cache hits")
	}
	if sys.Stats.ROHits <= sys.Stats.ROMisses {
		t.Fatalf("hits %d should exceed misses %d", sys.Stats.ROHits, sys.Stats.ROMisses)
	}
}

// TestHotLocationsIntegration: the filter plug-in identifies the hammered
// address as hottest.
func TestHotLocationsIntegration(t *testing.T) {
	src := `
        .data
hot:    .word 0
        .space 252
cold:   .word 0
        .text
main:   la    $t0, hot
        bcast $t0
        li    $a0, 0
        li    $a1, 127
        fence
        spawn $a0, $a1
L:      addiu $tid, $zero, 1
        ps    $tid, g63
        chkid $tid
        addiu $t2, $zero, 1
        psm   $t2, 0($t0)
        j     L
        join
        lw    $t3, 256($t0)
        sys   0
`
	sys, _ := buildSys(t, src, config.FPGA64())
	h := stats.NewHotLocations(32, 3)
	sys.Stats.AddFilter(h)
	if _, err := sys.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	top := h.Top()
	if len(top) == 0 {
		t.Fatal("no hot locations recorded")
	}
	hotAddr, _ := sys.Prog.SymAddr("hot")
	if top[0].Addr != hotAddr/32*32 {
		t.Fatalf("hottest = 0x%x, want bucket of 0x%x", top[0].Addr, hotAddr)
	}
}

// TestRuntimeErrorSurfacing: faults inside parallel code stop the run
// with a located error.
func TestRuntimeErrorSurfacing(t *testing.T) {
	src := `
        .text
main:   li    $a0, 0
        li    $a1, 3
        spawn $a0, $a1
L:      addiu $tid, $zero, 1
        ps    $tid, g63
        chkid $tid
        lui   $t2, 0x7f00
        lw    $t3, 0($t2)
        j     L
        join
        sys   0
`
	sys, _ := buildSys(t, src, config.FPGA64())
	_, err := sys.Run(1_000_000)
	if err == nil || !strings.Contains(err.Error(), "memory fault") {
		t.Fatalf("want surfaced memory fault, got %v", err)
	}
}

// TestCycleBudget: a non-halting program stops at the budget with
// TimedOut set.
func TestCycleBudget(t *testing.T) {
	src := `
        .text
main:   j main
`
	sys, _ := buildSys(t, src, config.FPGA64())
	res, err := sys.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut || res.Halted {
		t.Fatalf("want timeout, got %+v", res)
	}
}

func TestBcastSelectiveRegisters(t *testing.T) {
	// Only bcast-ed registers reach the TCUs; others read as zero.
	src := `
        .data
obs:    .word 0, 0
        .text
main:   la    $t0, obs
        li    $t1, 77
        li    $t2, 88
        bcast $t0
        bcast $t1
        li    $a0, 0
        li    $a1, 0
        fence
        spawn $a0, $a1
L:      addiu $tid, $zero, 1
        ps    $tid, g63
        chkid $tid
        sw.nb $t1, 0($t0)      # broadcast: 77
        sw.nb $t2, 4($t0)      # NOT broadcast: TCU-local zero
        j     L
        join
        lw    $v0, obs
        sys   1
        lw    $v0, 4($t0)
        sys   1
        sys   0
`
	sys, out := buildSys(t, src, config.FPGA64())
	if _, err := sys.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if out.String() != "770" {
		t.Fatalf("got %q, want %q (77 then 0)", out.String(), "770")
	}
	_ = isa.RegZero
}

// TestSpawnBarrier (Fig. 2b): a spawn statement is an implicit barrier —
// every store of spawn N (including posted non-blocking stores, which must
// drain before the join completes) is visible to spawn N+1 and to the
// serial code after it.
func TestSpawnBarrier(t *testing.T) {
	src := `
        .data
A:      .space 256
sum:    .word 0
        .text
main:   la    $t0, A
        bcast $t0
        li    $a0, 0
        li    $a1, 63
        fence
        spawn $a0, $a1
L1:     addiu $tid, $zero, 1
        ps    $tid, g63
        chkid $tid
        addiu $t2, $tid, 100
        sll   $t3, $tid, 2
        addu  $t3, $t0, $t3
        sw.nb $t2, 0($t3)        # A[$] = $+100, posted
        j     L1
        join
        bcast $t0
        li    $a0, 0
        li    $a1, 63
        spawn $a0, $a1
L2:     addiu $tid, $zero, 1
        ps    $tid, g63
        chkid $tid
        sll   $t3, $tid, 2
        addu  $t3, $t0, $t3
        lw    $t4, 0($t3)        # must observe spawn 1's stores
        psm   $t4, 256($t0)      # sum += A[$]  (sum is at A+256)
        j     L2
        join
        lw    $v0, 256($t0)
        sys   1
        sys   0
`
	sys, out := buildSys(t, src, config.FPGA64())
	if _, err := sys.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(64*100 + 64*63/2)
	if out.String() != want {
		t.Fatalf("barrier leak: got %q, want %q", out.String(), want)
	}
}

// TestFetchOutsideBroadcastRegion: if (bypassing the post-pass) parallel
// code branches out of the spawn region, the TCU cannot fetch the target
// — the simulator reports it rather than silently executing.
func TestFetchOutsideBroadcastRegion(t *testing.T) {
	src := `
        .text
main:   li    $a0, 0
        li    $a1, 3
        spawn $a0, $a1
L:      addiu $tid, $zero, 1
        ps    $tid, g63
        chkid $tid
        beq   $tid, $zero, escape   # illegal: target after the join
        j     L
        join
escape: nop
        sys   0
`
	sys, _ := buildSys(t, src, config.FPGA64())
	_, err := sys.Run(1_000_000)
	if err == nil || !strings.Contains(err.Error(), "broadcast region") {
		t.Fatalf("want broadcast-region fault, got %v", err)
	}
}

// TestManyVirtualThreads: far more virtual threads than TCUs — the
// prefix-sum grab loop load-balances dynamically (the "independence of
// order" property the XMT workflow relies on).
func TestManyVirtualThreads(t *testing.T) {
	src := `
        .data
sum:    .word 0
        .text
main:   la    $t0, sum
        bcast $t0
        li    $a0, 0
        li    $a1, 9999
        fence
        spawn $a0, $a1
L:      addiu $tid, $zero, 1
        ps    $tid, g63
        chkid $tid
        addiu $t2, $zero, 1
        psm   $t2, 0($t0)
        j     L
        join
        lw    $v0, 0($t0)
        sys   1
        sys   0
`
	sys, out := buildSys(t, src, config.FPGA64())
	res, err := sys.Run(50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != "10000" {
		t.Fatalf("got %q, want 10000", out.String())
	}
	if sys.Stats.VirtualThreads != 10000 {
		t.Fatalf("virtual threads = %d", sys.Stats.VirtualThreads)
	}
	if res.Cycles <= 0 {
		t.Fatal("no progress")
	}
}

// TestNegativeSpawnBounds: the paper only requires low <= $ <= high; ids
// may be negative.
func TestNegativeSpawnBounds(t *testing.T) {
	src := `
        .data
sum:    .word 0
        .text
main:   la    $t0, sum
        bcast $t0
        li    $a0, -5
        li    $a1, -1
        fence
        spawn $a0, $a1
L:      addiu $tid, $zero, 1
        ps    $tid, g63
        chkid $tid
        move  $t2, $tid
        psm   $t2, 0($t0)
        j     L
        join
        lw    $v0, 0($t0)
        sys   1
        sys   0
`
	sys, out := buildSys(t, src, config.FPGA64())
	if _, err := sys.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	if out.String() != "-15" {
		t.Fatalf("got %q, want -15 (sum of -5..-1)", out.String())
	}
	_ = sys
}
