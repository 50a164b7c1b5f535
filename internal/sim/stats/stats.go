// Package stats implements XMTSim's built-in counters (paper §III-B):
// instruction counters that record executed instructions by opcode and
// functional unit, and activity counters that monitor the state of the
// cycle-accurate components — memory wait time, cache hits and misses,
// interconnect traversals, DRAM accesses, prefetch-buffer behaviour,
// per-cluster utilization. Filter plug-ins customize the instruction
// statistics reported at the end of a simulation; the bundled
// HotLocations plug-in reproduces the paper's example of listing the most
// frequently accessed shared-memory locations.
package stats

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"xmtgo/internal/isa"
)

// ClusterStats are one cluster's counters: the instructions its TCUs
// committed, by functional unit, and its activity counters. Only the
// cluster's own compute phase and serial contexts write them (see
// Collector). ByUnit counts an instruction when it issues, and the commit
// that stops a run takes back the issues the stop discards
// (cycle.Cluster.uncount), so between windows it holds committed
// instructions only.
type ClusterStats struct {
	ByUnit          [isa.NumUnits]uint64
	BusyCycles      uint64 // cycles with at least one active TCU
	MemWaitCycles   uint64 // TCU-cycles spent blocked on memory
	FPUWaitCycles   uint64 // TCU-cycles spent waiting for a shared FPU/MDU
	PSWaitCycles    uint64 // TCU-cycles spent blocked on the prefix-sum unit
	SendStallCycles uint64 // TCU-cycles the ICN injection port refused a send
}

// TCUInstrs returns the instructions committed by the cluster's TCUs.
func (cs *ClusterStats) TCUInstrs() uint64 {
	var n uint64
	for _, v := range cs.ByUnit {
		n += v
	}
	return n
}

// Collector accumulates all counters of one simulation run. Each cluster's
// entry of Cluster is written only by that cluster's compute phase, which
// may run on a host worker concurrently with other clusters', or by serial
// contexts. Every other field is written by serial contexts only: the
// scheduler goroutine, outside any compute phase. So plain integers suffice.
// Readers go through Snapshot, the one place the per-cluster, per-module and
// per-port counters are summed into machine-wide totals. Only TotalInstrs,
// which the engine reads for its watchdog and Run result, sums on its own.
type Collector struct {
	// Instruction counters: the master's here, the TCUs' in their cluster's
	// row (TCUInstrs; Snapshot sums them by unit).
	MasterInstrs uint64
	MasterByUnit [isa.NumUnits]uint64

	// Activity counters.
	Cluster []ClusterStats

	CacheHits      []uint64 // per cache module
	CacheMisses    []uint64
	CacheQueueFull []uint64 // accept stalls due to a full service queue

	DRAMAccesses []uint64 // per port

	ICNTraversals uint64
	ICNHops       uint64

	PsOps  uint64
	PsmOps uint64

	SpawnCount     uint64
	VirtualThreads uint64

	PrefetchFills  uint64
	PrefetchHits   uint64
	PrefetchEvicts uint64

	ROHits   uint64
	ROMisses uint64

	MasterCacheHits   uint64
	MasterCacheMisses uint64

	// Hardware performance counters (docs/OBSERVABILITY.md). All are
	// updated either on the scheduler goroutine or cluster-locally, so
	// they are bit-identical for any host worker count.
	LoadLatency     Histogram // ticks, issue -> commit, per load/psm
	PSLatency       Histogram // ticks, ps request -> response delivered
	CacheQueueDepth Histogram // service-queue depth per serving cache tick

	SpawnOverheadCycles uint64 // master cycles spent broadcasting spawns
	JoinOverheadCycles  uint64 // master cycles spent completing joins
	MasterMemWaitCycles uint64 // master cycles blocked on memory
	MasterSendStalls    uint64 // master sends refused by the injection port

	// Fault injection and resilience (docs/ROBUSTNESS.md). All updated on
	// the scheduler goroutine (fault events and outbox commits), so they
	// are bit-identical for any host worker count.
	MemFaults          uint64 // transient memory bit-flips applied
	RegFaults          uint64 // transient register bit-flips applied
	ICNDelayFaults     uint64 // ICN package delays applied
	ICNDupFaults       uint64 // ICN package duplications applied
	ICNDropFaults      uint64 // ICN package drops (retransmissions) applied
	CacheStallFaults   uint64 // cache-module stalls applied
	TCUFailFaults      uint64 // permanent TCU failures injected
	ClusterFailFaults  uint64 // permanent cluster failures injected
	TCUsDecommissioned uint64 // TCUs gracefully decommissioned
	Redispatches       uint64 // orphaned virtual threads re-dispatched

	// RedispatchLatency measures ticks from a TCU's decommission to its
	// orphaned virtual thread resuming on a surviving TCU.
	RedispatchLatency Histogram

	// Race sanitizer counters (xmtsan, docs/ANALYZER.md). Both stay zero when
	// race checking is off, and the race section of the counter report and
	// JSON snapshot is omitted entirely then, so race-off artifacts remain
	// byte-identical with and without the feature compiled in. Updated on the
	// scheduler goroutine only.
	RaceChecks  uint64 // shadow word-access checks performed
	RaceReports uint64 // confirmed races reported

	filters []Filter
}

// NewCollector sizes a collector for the given machine shape.
func NewCollector(clusters, cacheModules, dramPorts int) *Collector {
	return &Collector{
		Cluster:        make([]ClusterStats, clusters),
		CacheHits:      make([]uint64, cacheModules),
		CacheMisses:    make([]uint64, cacheModules),
		CacheQueueFull: make([]uint64, cacheModules),
		DRAMAccesses:   make([]uint64, dramPorts),
	}
}

// CountInstr records one committed instruction: the master's, or one of
// the given cluster's TCUs'. The cycle engine counts TCU issues in the
// cluster's row itself (cycle.Cluster.count) and feeds filters at commit.
func (c *Collector) CountInstr(op isa.Op, cluster int, master bool) {
	unit := op.Meta().Unit
	if master {
		c.MasterByUnit[unit]++
		c.MasterInstrs++
	} else {
		c.Cluster[cluster].ByUnit[unit]++
	}
	for _, f := range c.filters {
		f.Instr(op, master)
	}
}

// TCUInstrs returns the instructions committed by all TCUs.
func (c *Collector) TCUInstrs() uint64 {
	var n uint64
	for i := range c.Cluster {
		n += c.Cluster[i].TCUInstrs()
	}
	return n
}

// CountMem records one memory access observed at a cache module.
func (c *Collector) CountMem(addr uint32, op isa.Op, module int, hit bool) {
	if module >= 0 && module < len(c.CacheHits) {
		if hit {
			c.CacheHits[module]++
		} else {
			c.CacheMisses[module]++
		}
	}
	for _, f := range c.filters {
		f.Mem(addr, op, module, hit)
	}
}

// TotalInstrs returns all committed instructions.
func (c *Collector) TotalInstrs() uint64 { return c.MasterInstrs + c.TCUInstrs() }

// AddFilter registers an instruction-statistics filter plug-in.
func (c *Collector) AddFilter(f Filter) { c.filters = append(c.filters, f) }

// Filters returns the registered filter plug-ins.
func (c *Collector) Filters() []Filter { return c.filters }

// Filter is the external filter plug-in interface of Fig. 3: it observes
// the instruction stream and memory traffic during simulation and
// customizes the statistics reported at the end.
type Filter interface {
	Name() string
	// Instr observes one committed instruction. The master's arrive as it
	// issues them. TCU instructions arrive at the cycle engine's commit, in
	// (cycle, cluster) order and, within one cluster's cycle, in issue order,
	// so the sequence is the same for any host worker count, window size and
	// engine mode.
	Instr(op isa.Op, master bool)
	// Mem observes one memory access served at a cache module.
	Mem(addr uint32, op isa.Op, module int, hit bool)
	// Report writes the plug-in's end-of-simulation statistics.
	Report(w io.Writer)
}

// Report writes the standard end-of-run statistics, rendered from the
// collector's Snapshot, then each filter's.
func (c *Collector) Report(w io.Writer) {
	s := c.Snapshot(0, 0)
	m := &s.Memory
	fmt.Fprintf(w, "instructions: total=%d master=%d tcu=%d\n", s.Instructions.Total, s.Instructions.Master, s.Instructions.TCU)
	s.reportByUnit(w)
	fmt.Fprintf(w, "shared cache: hits=%d misses=%d psm=%d\n", m.CacheHits, m.CacheMisses, m.CachePsm)
	fmt.Fprintf(w, "icn: traversals=%d hops=%d\n", m.ICNTraversals, m.ICNHops)
	fmt.Fprintf(w, "dram: accesses=%d across %d ports\n", m.DRAMTotal, len(m.DRAMAccesses))
	fmt.Fprintf(w, "spawns=%d virtual_threads=%d ps=%d\n", s.SpawnJoin.Spawns, s.SpawnJoin.VirtualThreads, s.PrefixSum.Ops)
	fmt.Fprintf(w, "prefetch: fills=%d hits=%d evicts=%d\n", m.PrefetchFills, m.PrefetchHits, m.PrefetchEvicts)
	fmt.Fprintf(w, "rocache: hits=%d misses=%d\n", m.ROHits, m.ROMisses)
	fmt.Fprintf(w, "master cache: hits=%d misses=%d\n", m.MasterCacheHits, m.MasterCacheMiss)
	if ll := &m.LoadLatency; ll.Count > 0 {
		fmt.Fprintf(w, "avg load latency: %.1f ticks over %d loads\n",
			float64(ll.Sum)/float64(ll.Count), ll.Count)
	}
	for _, f := range c.filters {
		fmt.Fprintf(w, "--- filter %s ---\n", f.Name())
		f.Report(w)
	}
}

// HotLocations is the default filter plug-in of the paper's example: it
// creates a list of the most frequently accessed locations in the XMT
// shared memory space, which helps a programmer find the assembly lines
// causing memory bottlenecks.
type HotLocations struct {
	// Granularity in bytes (e.g. a cache line); accesses are bucketed.
	Granularity uint32
	TopN        int
	counts      map[uint32]uint64
}

// NewHotLocations creates the plug-in with line-granularity buckets.
func NewHotLocations(granularity uint32, topN int) *HotLocations {
	if granularity == 0 {
		granularity = 4
	}
	if topN <= 0 {
		topN = 10
	}
	return &HotLocations{Granularity: granularity, TopN: topN, counts: make(map[uint32]uint64)}
}

// Name implements Filter.
func (h *HotLocations) Name() string { return "hot-locations" }

// Instr implements Filter (instruction counts are not used here).
func (h *HotLocations) Instr(op isa.Op, master bool) {}

// Mem implements Filter.
func (h *HotLocations) Mem(addr uint32, op isa.Op, module int, hit bool) {
	h.counts[addr/h.Granularity*h.Granularity]++
}

// Top returns the most-accessed buckets.
func (h *HotLocations) Top() []struct {
	Addr  uint32
	Count uint64
} {
	type kv struct {
		Addr  uint32
		Count uint64
	}
	all := make([]kv, 0, len(h.counts))
	for a, n := range h.counts {
		all = append(all, kv{a, n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Addr < all[j].Addr
	})
	if len(all) > h.TopN {
		all = all[:h.TopN]
	}
	out := make([]struct {
		Addr  uint32
		Count uint64
	}, len(all))
	for i, e := range all {
		out[i] = struct {
			Addr  uint32
			Count uint64
		}{e.Addr, e.Count}
	}
	return out
}

// Report implements Filter.
func (h *HotLocations) Report(w io.Writer) {
	for _, e := range h.Top() {
		fmt.Fprintf(w, "0x%08x: %d accesses\n", e.Addr, e.Count)
	}
}

// OpHistogram is a filter plug-in reporting the instruction mix.
type OpHistogram struct {
	counts [isa.NumOps]uint64
}

// Name implements Filter.
func (o *OpHistogram) Name() string { return "op-histogram" }

// Instr implements Filter.
func (o *OpHistogram) Instr(op isa.Op, master bool) { o.counts[op]++ }

// Mem implements Filter.
func (o *OpHistogram) Mem(addr uint32, op isa.Op, module int, hit bool) {}

// Count returns the count for one opcode.
func (o *OpHistogram) Count(op isa.Op) uint64 { return o.counts[op] }

// Report implements Filter.
func (o *OpHistogram) Report(w io.Writer) {
	type kv struct {
		op isa.Op
		n  uint64
	}
	var all []kv
	for op := 0; op < isa.NumOps; op++ {
		if o.counts[op] > 0 {
			all = append(all, kv{isa.Op(op), o.counts[op]})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].n > all[j].n })
	var parts []string
	for _, e := range all {
		parts = append(parts, fmt.Sprintf("%s=%d", e.op, e.n))
	}
	fmt.Fprintln(w, strings.Join(parts, " "))
}
