package stats

import (
	"fmt"
	"io"

	"xmtgo/internal/isa"
)

// ReportCounters writes the full hardware-counter report (xmtsim -counters):
// per-cluster activity with a stall-cycle breakdown by cause, the memory
// system counters, the prefix-sum unit's round-trip latency histogram, and
// spawn/join overheads. The output is byte-deterministic — fixed ordering,
// fixed formatting — so counter reports from different host worker counts
// compare equal byte-for-byte (the golden tests rely on this).
func (c *Collector) ReportCounters(w io.Writer) {
	fmt.Fprintf(w, "== instructions ==\n")
	fmt.Fprintf(w, "total=%d master=%d tcu=%d\n", c.TotalInstrs(), c.MasterInstrs, c.TCUInstrs())
	c.reportByUnit(w)

	fmt.Fprintf(w, "== per-cluster activity ==\n")
	fmt.Fprintf(w, "cluster     instrs       alu       fpu       mdu       mem      busy   memwait   fpuwait    pswait sendstall\n")
	var tot ClusterRow
	for i := range c.Cluster {
		cs := c.Cluster[i].Row()
		fmt.Fprintf(w, "%7d %10d %9d %9d %9d %9d %9d %9d %9d %9d %9d\n",
			i, cs.TCUInstrs, cs.ALUOps, cs.FPUOps, cs.MDUOps, cs.MemOps,
			cs.BusyCycles, cs.MemWaitCycles, cs.FPUWaitCycles, cs.PSWaitCycles, cs.SendStallCycles)
		tot.TCUInstrs += cs.TCUInstrs
		tot.ALUOps += cs.ALUOps
		tot.FPUOps += cs.FPUOps
		tot.MDUOps += cs.MDUOps
		tot.MemOps += cs.MemOps
		tot.BusyCycles += cs.BusyCycles
		tot.MemWaitCycles += cs.MemWaitCycles
		tot.FPUWaitCycles += cs.FPUWaitCycles
		tot.PSWaitCycles += cs.PSWaitCycles
		tot.SendStallCycles += cs.SendStallCycles
	}
	fmt.Fprintf(w, "    all %10d %9d %9d %9d %9d %9d %9d %9d %9d %9d\n",
		tot.TCUInstrs, tot.ALUOps, tot.FPUOps, tot.MDUOps, tot.MemOps,
		tot.BusyCycles, tot.MemWaitCycles, tot.FPUWaitCycles, tot.PSWaitCycles, tot.SendStallCycles)

	fmt.Fprintf(w, "== stall cycles by cause ==\n")
	fmt.Fprintf(w, "mem=%d fpu_mdu=%d ps=%d icn_send=%d master_mem=%d master_send=%d\n",
		tot.MemWaitCycles, tot.FPUWaitCycles, tot.PSWaitCycles, tot.SendStallCycles,
		c.MasterMemWaitCycles, c.MasterSendStalls)

	fmt.Fprintf(w, "== memory system ==\n")
	hits, misses := c.TotalCacheHits()
	fmt.Fprintf(w, "shared cache: hits=%d misses=%d psm=%d\n", hits, misses, c.PsmOps)
	fmt.Fprintf(w, "per module:")
	for i := range c.CacheHits {
		fmt.Fprintf(w, " %d:%d/%d", i, c.CacheHits[i], c.CacheMisses[i])
	}
	fmt.Fprintln(w)
	var qfull uint64
	for _, n := range c.CacheQueueFull {
		qfull += n
	}
	fmt.Fprintf(w, "service-queue full stalls: %d\n", qfull)
	c.CacheQueueDepth.Report(w, "service-queue depth")
	var dram uint64
	for _, d := range c.DRAMAccesses {
		dram += d
	}
	fmt.Fprintf(w, "dram: accesses=%d across %d ports\n", dram, len(c.DRAMAccesses))
	fmt.Fprintf(w, "icn: traversals=%d hops=%d\n", c.ICNTraversals, c.ICNHops)
	fmt.Fprintf(w, "prefetch: fills=%d hits=%d evicts=%d\n", c.PrefetchFills, c.PrefetchHits, c.PrefetchEvicts)
	fmt.Fprintf(w, "rocache: hits=%d misses=%d\n", c.ROHits, c.ROMisses)
	fmt.Fprintf(w, "master cache: hits=%d misses=%d\n", c.MasterCacheHits, c.MasterCacheMisses)
	c.LoadLatency.Report(w, "load latency (ticks)")

	fmt.Fprintf(w, "== prefix sum ==\n")
	fmt.Fprintf(w, "ps=%d psm=%d\n", c.PsOps, c.PsmOps)
	c.PSLatency.Report(w, "ps round trip (ticks)")

	fmt.Fprintf(w, "== spawn/join ==\n")
	fmt.Fprintf(w, "spawns=%d virtual_threads=%d spawn_overhead_cycles=%d join_overhead_cycles=%d\n",
		c.SpawnCount, c.VirtualThreads, c.SpawnOverheadCycles, c.JoinOverheadCycles)

	fmt.Fprintf(w, "== faults ==\n")
	fmt.Fprintf(w, "injected=%d mem=%d reg=%d icn_delay=%d icn_dup=%d icn_drop=%d cache_stall=%d tcu_fail=%d cluster_fail=%d\n",
		c.FaultsInjected(), c.MemFaults, c.RegFaults, c.ICNDelayFaults, c.ICNDupFaults,
		c.ICNDropFaults, c.CacheStallFaults, c.TCUFailFaults, c.ClusterFailFaults)
	fmt.Fprintf(w, "decommissioned_tcus=%d redispatches=%d\n", c.TCUsDecommissioned, c.Redispatches)
	c.RedispatchLatency.Report(w, "re-dispatch latency (ticks)")

	// The race-sanitizer section only appears when race checking ran: the
	// report must stay byte-identical to pre-sanitizer goldens otherwise.
	if c.RaceChecks > 0 {
		fmt.Fprintf(w, "== race sanitizer ==\n")
		fmt.Fprintf(w, "checks=%d reports=%d\n", c.RaceChecks, c.RaceReports)
	}
}

// reportByUnit writes the committed instructions of every unit that has any.
func (c *Collector) reportByUnit(w io.Writer) {
	fmt.Fprintf(w, "by unit:")
	for u, n := range c.InstrByUnit() {
		if n > 0 {
			fmt.Fprintf(w, " %s=%d", isa.Unit(u), n)
		}
	}
	fmt.Fprintln(w)
}
