package stats

import (
	"fmt"
	"io"

	"xmtgo/internal/isa"
)

// ReportCounters writes the full hardware-counter report (xmtsim -counters):
// per-cluster activity with a stall-cycle breakdown by cause, the memory
// system counters, the prefix-sum unit's round-trip latency histogram, and
// spawn/join overheads. It renders the collector's Snapshot. The output is
// byte-deterministic — fixed ordering, fixed formatting — so counter reports
// from different host worker counts compare equal byte-for-byte (the golden
// tests rely on this).
func (c *Collector) ReportCounters(w io.Writer) {
	s := c.Snapshot(0, 0)
	fmt.Fprintf(w, "== instructions ==\n")
	fmt.Fprintf(w, "total=%d master=%d tcu=%d\n", s.Instructions.Total, s.Instructions.Master, s.Instructions.TCU)
	s.reportByUnit(w)

	fmt.Fprintf(w, "== per-cluster activity ==\n")
	fmt.Fprintf(w, "cluster     instrs       alu       fpu       mdu       mem      busy   memwait   fpuwait    pswait sendstall\n")
	var tot ClusterRow
	for i, cs := range s.Clusters {
		fmt.Fprintf(w, "%7d %10d %9d %9d %9d %9d %9d %9d %9d %9d %9d\n",
			i, cs.TCUInstrs, cs.ALUOps, cs.FPUOps, cs.MDUOps, cs.MemOps,
			cs.BusyCycles, cs.MemWaitCycles, cs.FPUWaitCycles, cs.PSWaitCycles, cs.SendStallCycles)
		tot.ALUOps += cs.ALUOps
		tot.FPUOps += cs.FPUOps
		tot.MDUOps += cs.MDUOps
		tot.MemOps += cs.MemOps
		tot.BusyCycles += cs.BusyCycles
	}
	st := &s.Stalls
	fmt.Fprintf(w, "    all %10d %9d %9d %9d %9d %9d %9d %9d %9d %9d\n",
		s.Instructions.TCU, tot.ALUOps, tot.FPUOps, tot.MDUOps, tot.MemOps,
		tot.BusyCycles, st.Mem, st.FPUMDU, st.PS, st.ICNSend)

	fmt.Fprintf(w, "== stall cycles by cause ==\n")
	fmt.Fprintf(w, "mem=%d fpu_mdu=%d ps=%d icn_send=%d master_mem=%d master_send=%d\n",
		st.Mem, st.FPUMDU, st.PS, st.ICNSend, st.MasterMem, st.MasterSend)

	m := &s.Memory
	fmt.Fprintf(w, "== memory system ==\n")
	fmt.Fprintf(w, "shared cache: hits=%d misses=%d psm=%d\n", m.CacheHits, m.CacheMisses, m.CachePsm)
	fmt.Fprintf(w, "per module:")
	for i := range m.PerModuleHits {
		fmt.Fprintf(w, " %d:%d/%d", i, m.PerModuleHits[i], m.PerModuleMisses[i])
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "service-queue full stalls: %d\n", m.QueueFull)
	m.QueueDepth.Report(w, "service-queue depth")
	fmt.Fprintf(w, "dram: accesses=%d across %d ports\n", m.DRAMTotal, len(m.DRAMAccesses))
	fmt.Fprintf(w, "icn: traversals=%d hops=%d\n", m.ICNTraversals, m.ICNHops)
	fmt.Fprintf(w, "prefetch: fills=%d hits=%d evicts=%d\n", m.PrefetchFills, m.PrefetchHits, m.PrefetchEvicts)
	fmt.Fprintf(w, "rocache: hits=%d misses=%d\n", m.ROHits, m.ROMisses)
	fmt.Fprintf(w, "master cache: hits=%d misses=%d\n", m.MasterCacheHits, m.MasterCacheMiss)
	m.LoadLatency.Report(w, "load latency (ticks)")

	fmt.Fprintf(w, "== prefix sum ==\n")
	fmt.Fprintf(w, "ps=%d psm=%d\n", s.PrefixSum.Ops, s.PrefixSum.PsmOps)
	s.PrefixSum.Latency.Report(w, "ps round trip (ticks)")

	sj := &s.SpawnJoin
	fmt.Fprintf(w, "== spawn/join ==\n")
	fmt.Fprintf(w, "spawns=%d virtual_threads=%d spawn_overhead_cycles=%d join_overhead_cycles=%d\n",
		sj.Spawns, sj.VirtualThreads, sj.SpawnOverhead, sj.JoinOverhead)

	f := &s.Faults
	fmt.Fprintf(w, "== faults ==\n")
	fmt.Fprintf(w, "injected=%d mem=%d reg=%d icn_delay=%d icn_dup=%d icn_drop=%d cache_stall=%d tcu_fail=%d cluster_fail=%d\n",
		f.Injected, f.Mem, f.Reg, f.ICNDelay, f.ICNDup, f.ICNDrop, f.CacheStall, f.TCUFail, f.ClusterFail)
	fmt.Fprintf(w, "decommissioned_tcus=%d redispatches=%d\n", f.Decommissioned, f.Redispatches)
	f.RedispatchLatency.Report(w, "re-dispatch latency (ticks)")

	// The race-sanitizer section only appears when race checking ran: the
	// report must stay byte-identical to pre-sanitizer goldens otherwise.
	if s.Race != nil {
		fmt.Fprintf(w, "== race sanitizer ==\n")
		fmt.Fprintf(w, "checks=%d reports=%d\n", s.Race.Checks, s.Race.Reports)
	}
}

// reportByUnit writes the committed instructions of every unit that has
// any, in unit order.
func (s *Snapshot) reportByUnit(w io.Writer) {
	fmt.Fprintf(w, "by unit:")
	for u := range isa.NumUnits {
		name := isa.Unit(u).String()
		if n := s.Instructions.ByUnit[name]; n > 0 {
			fmt.Fprintf(w, " %s=%d", name, n)
		}
	}
	fmt.Fprintln(w)
}
