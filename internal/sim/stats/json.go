package stats

import (
	"encoding/json"
	"io"

	"xmtgo/internal/isa"
)

// SnapshotSchema versions the machine-readable counter snapshot. Bump it
// whenever a field is renamed, removed, or changes meaning; adding fields is
// backward compatible and does not require a bump.
const SnapshotSchema = "xmt-counters/v1"

// Snapshot is the stable machine-readable form of ReportCounters: the full
// hardware-counter state of one run (or of one point in a run), designed to
// be diffed across runs by cmd/xmtperf and embedded in interval telemetry.
// It is the one reduction of the collector to machine-wide totals: the
// reports render a snapshot, and the interval sampler and the power model
// difference two.
// Field order is fixed by the struct, map keys are sorted by encoding/json,
// and every value derives from deterministic counters, so the marshaled
// bytes are identical for any host worker count.
type Snapshot struct {
	Schema string `json:"schema"`
	Cycle  int64  `json:"cycle"`
	Ticks  int64  `json:"ticks"`

	Instructions InstrSnapshot  `json:"instructions"`
	Clusters     []ClusterRow   `json:"clusters"`
	Stalls       StallSnapshot  `json:"stalls"`
	Memory       MemorySnapshot `json:"memory"`
	PrefixSum    PSSnapshot     `json:"prefix_sum"`
	SpawnJoin    SpawnSnapshot  `json:"spawn_join"`
	Faults       FaultSnapshot  `json:"faults"`

	// Race is the xmtsan section, present only when race checking ran (so
	// race-off snapshots — including counters.json.golden — are byte-unchanged).
	Race *RaceSnapshot `json:"race,omitempty"`
}

// InstrSnapshot is the instruction-counter section.
type InstrSnapshot struct {
	Total  uint64            `json:"total"`
	Master uint64            `json:"master"`
	TCU    uint64            `json:"tcu"`
	ByUnit map[string]uint64 `json:"by_unit"`
}

// ClusterRow is one cluster's counters as the counter report prints them:
// the instruction counts derived from ClusterStats.ByUnit (ALU counts the
// integer ALU, shift and branch units), then its activity counters. The JSON
// tags are part of the stable counter schema.
type ClusterRow struct {
	TCUInstrs       uint64 `json:"instrs"`
	ALUOps          uint64 `json:"alu"`
	FPUOps          uint64 `json:"fpu"`
	MDUOps          uint64 `json:"mdu"`
	MemOps          uint64 `json:"mem"`
	BusyCycles      uint64 `json:"busy_cycles"`
	MemWaitCycles   uint64 `json:"mem_wait_cycles"`
	FPUWaitCycles   uint64 `json:"fpu_wait_cycles"`
	PSWaitCycles    uint64 `json:"ps_wait_cycles"`
	SendStallCycles uint64 `json:"send_stall_cycles"`
}

// StallSnapshot is the machine-wide stall-cycle breakdown by cause.
type StallSnapshot struct {
	Mem        uint64 `json:"mem"`
	FPUMDU     uint64 `json:"fpu_mdu"`
	PS         uint64 `json:"ps"`
	ICNSend    uint64 `json:"icn_send"`
	MasterMem  uint64 `json:"master_mem"`
	MasterSend uint64 `json:"master_send"`
}

// MemorySnapshot is the memory-system section.
type MemorySnapshot struct {
	CacheHits       uint64       `json:"cache_hits"`
	CacheMisses     uint64       `json:"cache_misses"`
	CachePsm        uint64       `json:"cache_psm"`
	PerModuleHits   []uint64     `json:"per_module_hits"`
	PerModuleMisses []uint64     `json:"per_module_misses"`
	QueueFull       uint64       `json:"queue_full"`
	QueueDepth      HistSnapshot `json:"queue_depth"`
	DRAMAccesses    []uint64     `json:"dram_accesses"`
	DRAMTotal       uint64       `json:"dram_total"`
	ICNTraversals   uint64       `json:"icn_traversals"`
	ICNHops         uint64       `json:"icn_hops"`
	PrefetchFills   uint64       `json:"prefetch_fills"`
	PrefetchHits    uint64       `json:"prefetch_hits"`
	PrefetchEvicts  uint64       `json:"prefetch_evicts"`
	ROHits          uint64       `json:"ro_hits"`
	ROMisses        uint64       `json:"ro_misses"`
	MasterCacheHits uint64       `json:"master_cache_hits"`
	MasterCacheMiss uint64       `json:"master_cache_misses"`
	LoadLatency     HistSnapshot `json:"load_latency"`
}

// PSSnapshot is the prefix-sum section.
type PSSnapshot struct {
	Ops     uint64       `json:"ops"`
	PsmOps  uint64       `json:"psm_ops"`
	Latency HistSnapshot `json:"latency"`
}

// SpawnSnapshot is the spawn/join section.
type SpawnSnapshot struct {
	Spawns         uint64 `json:"spawns"`
	VirtualThreads uint64 `json:"virtual_threads"`
	SpawnOverhead  uint64 `json:"spawn_overhead_cycles"`
	JoinOverhead   uint64 `json:"join_overhead_cycles"`
}

// FaultSnapshot is the fault-injection and resilience section.
type FaultSnapshot struct {
	Injected          uint64       `json:"injected"`
	Mem               uint64       `json:"mem"`
	Reg               uint64       `json:"reg"`
	ICNDelay          uint64       `json:"icn_delay"`
	ICNDup            uint64       `json:"icn_dup"`
	ICNDrop           uint64       `json:"icn_drop"`
	CacheStall        uint64       `json:"cache_stall"`
	TCUFail           uint64       `json:"tcu_fail"`
	ClusterFail       uint64       `json:"cluster_fail"`
	Decommissioned    uint64       `json:"decommissioned_tcus"`
	Redispatches      uint64       `json:"redispatches"`
	RedispatchLatency HistSnapshot `json:"redispatch_latency"`
}

// RaceSnapshot is the race-sanitizer section.
type RaceSnapshot struct {
	Checks  uint64 `json:"checks"`
	Reports uint64 `json:"reports"`
}

// HistSnapshot is the machine-readable form of a Histogram: the summary
// plus the non-empty power-of-two buckets as [lo, hi, count] triples.
type HistSnapshot struct {
	Count   uint64      `json:"count"`
	Sum     uint64      `json:"sum"`
	Max     uint64      `json:"max"`
	P50     uint64      `json:"p50"`
	P99     uint64      `json:"p99"`
	Buckets [][3]uint64 `json:"buckets,omitempty"`
}

// SnapshotHist converts a Histogram into its stable JSON form.
func SnapshotHist(h *Histogram) HistSnapshot {
	out := HistSnapshot{Count: h.Count, Sum: h.Sum, Max: h.Max,
		P50: h.Percentile(50), P99: h.Percentile(99)}
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		lo, hi := uint64(0), uint64(0)
		if i > 0 {
			lo, hi = uint64(1)<<uint(i-1), uint64(1)<<uint(i)-1
		}
		out.Buckets = append(out.Buckets, [3]uint64{lo, hi, n})
	}
	return out
}

// Snapshot captures the collector's full state at the given cycle/tick into
// the stable schema. The caller supplies the time coordinates because the
// collector itself does not track them.
func (c *Collector) Snapshot(cycle, ticks int64) *Snapshot {
	s := &Snapshot{Schema: SnapshotSchema, Cycle: cycle, Ticks: ticks}

	byUnit, tcu := c.MasterByUnit, uint64(0)
	s.Clusters = make([]ClusterRow, len(c.Cluster))
	for i := range c.Cluster {
		cs := &c.Cluster[i]
		for u, n := range cs.ByUnit {
			byUnit[u] += n
		}
		s.Clusters[i] = ClusterRow{
			TCUInstrs: cs.TCUInstrs(),
			ALUOps:    cs.ByUnit[isa.UnitALU] + cs.ByUnit[isa.UnitSFT] + cs.ByUnit[isa.UnitBR],
			FPUOps:    cs.ByUnit[isa.UnitFPU], MDUOps: cs.ByUnit[isa.UnitMDU], MemOps: cs.ByUnit[isa.UnitMEM],
			BusyCycles: cs.BusyCycles, MemWaitCycles: cs.MemWaitCycles,
			FPUWaitCycles: cs.FPUWaitCycles, PSWaitCycles: cs.PSWaitCycles,
			SendStallCycles: cs.SendStallCycles,
		}
		tcu += s.Clusters[i].TCUInstrs
		s.Stalls.Mem += cs.MemWaitCycles
		s.Stalls.FPUMDU += cs.FPUWaitCycles
		s.Stalls.PS += cs.PSWaitCycles
		s.Stalls.ICNSend += cs.SendStallCycles
	}
	s.Stalls.MasterMem, s.Stalls.MasterSend = c.MasterMemWaitCycles, c.MasterSendStalls

	s.Instructions = InstrSnapshot{
		Total: c.MasterInstrs + tcu, Master: c.MasterInstrs, TCU: tcu,
		ByUnit: map[string]uint64{},
	}
	for u, n := range byUnit {
		if n > 0 {
			s.Instructions.ByUnit[isa.Unit(u).String()] = n
		}
	}

	s.Memory = MemorySnapshot{
		CachePsm:        c.PsmOps,
		PerModuleHits:   append([]uint64(nil), c.CacheHits...),
		PerModuleMisses: append([]uint64(nil), c.CacheMisses...),
		QueueDepth:      SnapshotHist(&c.CacheQueueDepth),
		DRAMAccesses:    append([]uint64(nil), c.DRAMAccesses...),
		ICNTraversals:   c.ICNTraversals, ICNHops: c.ICNHops,
		PrefetchFills: c.PrefetchFills, PrefetchHits: c.PrefetchHits,
		PrefetchEvicts: c.PrefetchEvicts,
		ROHits:         c.ROHits, ROMisses: c.ROMisses,
		MasterCacheHits: c.MasterCacheHits, MasterCacheMiss: c.MasterCacheMisses,
		LoadLatency: SnapshotHist(&c.LoadLatency),
	}
	for i := range c.CacheHits {
		s.Memory.CacheHits += c.CacheHits[i]
		s.Memory.CacheMisses += c.CacheMisses[i]
	}
	for _, n := range c.CacheQueueFull {
		s.Memory.QueueFull += n
	}
	for _, d := range c.DRAMAccesses {
		s.Memory.DRAMTotal += d
	}

	s.PrefixSum = PSSnapshot{Ops: c.PsOps, PsmOps: c.PsmOps, Latency: SnapshotHist(&c.PSLatency)}
	s.SpawnJoin = SpawnSnapshot{
		Spawns: c.SpawnCount, VirtualThreads: c.VirtualThreads,
		SpawnOverhead: c.SpawnOverheadCycles, JoinOverhead: c.JoinOverheadCycles,
	}
	s.Faults = FaultSnapshot{
		Injected: c.MemFaults + c.RegFaults + c.ICNDelayFaults + c.ICNDupFaults +
			c.ICNDropFaults + c.CacheStallFaults + c.TCUFailFaults + c.ClusterFailFaults,
		Mem: c.MemFaults, Reg: c.RegFaults,
		ICNDelay: c.ICNDelayFaults, ICNDup: c.ICNDupFaults, ICNDrop: c.ICNDropFaults,
		CacheStall: c.CacheStallFaults, TCUFail: c.TCUFailFaults,
		ClusterFail: c.ClusterFailFaults, Decommissioned: c.TCUsDecommissioned,
		Redispatches: c.Redispatches, RedispatchLatency: SnapshotHist(&c.RedispatchLatency),
	}
	if c.RaceChecks > 0 {
		s.Race = &RaceSnapshot{Checks: c.RaceChecks, Reports: c.RaceReports}
	}
	return s
}

// WriteJSON marshals the snapshot with a fixed indentation and a trailing
// newline — the byte-deterministic `-counters-json` artifact.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
