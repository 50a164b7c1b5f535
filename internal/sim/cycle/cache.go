package cycle

import (
	"xmtgo/internal/sim/engine"
	"xmtgo/internal/sim/trace"
)

// CacheModule is one mutually-exclusive partition of XMT's shared first
// level of cache. The load-store units hash every address to a module, so
// each line has exactly one home and no coherence protocol is needed;
// concurrent requests are buffered in the module's service queue and served
// in order — which is also where simultaneous psm operations to the same
// base serialize, as the paper describes.
//
// The module performs the actual memory read/write at service time (the
// functional model's memory is the module's backing data), so the order in
// which requests drain the queues is the order memory is mutated in — the
// source of the relaxed-consistency behaviour of Figs. 6-7.
type CacheModule struct {
	sys  *System
	id   int
	tags *tagArray

	// serviceQ with head forms a dequeue-from-front queue that keeps its
	// backing array: popping by re-slicing (q = q[1:]) would strand the
	// array and make every accept reallocate. head is compacted back to 0
	// once it passes the queue capacity.
	serviceQ []*Package
	head     int
	capacity int

	// stalledUntil freezes the module's service pipeline until the given
	// time (CacheStall fault injection); requests keep queueing meanwhile.
	stalledUntil engine.Time
}

func newCacheModule(sys *System, id int) *CacheModule {
	cfg := sys.Cfg
	return &CacheModule{
		sys:      sys,
		id:       id,
		tags:     newTagArray(cfg.CacheLinesPerMod, cfg.CacheAssoc, cfg.CacheLineSize),
		capacity: cfg.CacheQueue,
	}
}

// accept enqueues a request if the service queue has room.
func (cm *CacheModule) accept(p *Package) bool {
	if len(cm.serviceQ)-cm.head >= cm.capacity {
		return false
	}
	if cm.head >= cm.capacity {
		n := copy(cm.serviceQ, cm.serviceQ[cm.head:])
		for i := n; i < len(cm.serviceQ); i++ {
			cm.serviceQ[i] = nil
		}
		cm.serviceQ = cm.serviceQ[:n]
		cm.head = 0
	}
	cm.serviceQ = append(cm.serviceQ, p)
	cm.sys.cacheActive.Set(cm.id)
	return true
}

// tickCaches is the cache clock domain's one Cycler: it ticks the modules
// that hold requests (cacheActive), in index order — service order is memory
// order — and drops a module once its Tick reports an empty queue. A stalled
// module (CacheStall) reports busy, so it stays and resumes at stalledUntil.
func (s *System) tickCaches(cycle int64, now engine.Time) bool {
	busy := false
	for m := s.cacheActive.Next(0); m >= 0; m = s.cacheActive.Next(m + 1) {
		if s.modules[m].Tick(cycle, now) {
			busy = true
		} else {
			s.cacheActive.Clear(m)
		}
	}
	return busy
}

// Tick serves one request per cache cycle (pipelined service: one dequeue
// per cycle, each response delayed by the hit or miss latency).
func (cm *CacheModule) Tick(cycle int64, now engine.Time) bool {
	depth := len(cm.serviceQ) - cm.head
	if depth == 0 {
		return false
	}
	if now < cm.stalledUntil {
		// Injected stall: pending requests keep the domain ticking so
		// service resumes at the stall horizon.
		return true
	}
	// The cache macro-actor is serial: observing the shared depth histogram
	// and event log directly is safe and deterministic.
	cm.sys.Stats.CacheQueueDepth.Observe(uint64(depth))
	if cm.sys.evlog != nil {
		cm.sys.evlog.Emit(trace.Event{TS: now, Kind: trace.EvQueueDepth,
			Ctx: int32(cm.id), Arg: int64(depth)})
	}
	p := cm.serviceQ[cm.head]
	cm.serviceQ[cm.head] = nil
	cm.head++
	if cm.head == len(cm.serviceQ) {
		cm.serviceQ = cm.serviceQ[:0]
		cm.head = 0
	}

	m := cm.sys.Machine
	hit := cm.tags.Lookup(p.Addr, cycle)
	cm.sys.Stats.CountMem(p.Addr, p.In.Op, cm.id, hit)

	// Perform the memory operation now: queue order is memory order.
	// Shadow packages (master timing probes) skip it.
	if !p.Shadow {
		switch p.Kind {
		case PkgLoad:
			p.Data, p.Err = m.LoadValue(p.In.Op, p.Addr)
		case PkgStore, PkgStoreNB:
			p.Err = m.StoreValue(p.In.Op, p.Addr, p.Data)
		case PkgPsm:
			p.Data, p.Err = m.Psm(p.Addr, p.Data)
		case PkgPrefetch:
			p.Line, p.Err = cm.readLine(p.LineAddr)
		}
		// xmtsan: service order is memory order, and the cache macro-actor
		// is serial, so checking here is deterministic. Master packages
		// (Cluster < 0) are serial-phase accesses the detector ignores by
		// construction; faulted accesses never commit. A prefetch fill is
		// not a program access — the later buffer hit is the read.
		if cm.sys.race != nil && p.Cluster >= 0 && p.Err == nil {
			tcu := p.Cluster*cm.sys.Cfg.TCUsPerCluster + p.TCU
			switch p.Kind {
			case PkgLoad:
				cm.sys.raceRead(tcu, p.Addr, p.In.Line, now)
			case PkgStore, PkgStoreNB:
				cm.sys.raceWrite(tcu, p.Addr, p.In.Line, now)
			case PkgPsm:
				cm.sys.race.SyncAccess(tcu, p.Addr, p.In.Line)
			}
		}
	}

	cfg := cm.sys.Cfg
	hitDone := now + cfg.CacheHitLatency*cfg.CachePeriod
	returnLat := cm.sys.returnLatency()
	if hit || p.Err != nil {
		cm.sys.scheduleDeliver(p, hitDone+returnLat)
		return len(cm.serviceQ) > 0
	}
	// Store miss: write-validate allocation — the line is installed
	// without a DRAM fetch and the write is acknowledged at the module.
	// (The shared cache is the coherence point; dirty evictions are not
	// modeled separately at transaction level.)
	if p.Kind == PkgStore || p.Kind == PkgStoreNB {
		cm.tags.Fill(p.Addr, cycle)
		cm.sys.scheduleDeliver(p, hitDone+returnLat)
		return len(cm.serviceQ) > 0
	}
	// Load/psm/prefetch miss: a line fill goes through a DRAM port; the
	// response leaves after the fill completes. Subsequent requests keep
	// being served (the module buffers and reorders requests for DRAM
	// bandwidth utilization, as the paper notes).
	fillAt := cm.sys.dram.access(p.LineOrAddr(cfg.CacheLineSize), hitDone)
	cm.tags.Fill(p.Addr, cycle)
	cm.sys.scheduleDeliver(p, fillAt+returnLat)
	return len(cm.serviceQ) > 0
}

func (cm *CacheModule) readLine(lineAddr uint32) ([]byte, error) {
	size := cm.sys.Cfg.CacheLineSize
	line := make([]byte, size)
	for i := 0; i < size; i += 4 {
		v, err := cm.sys.Machine.ReadWord(lineAddr + uint32(i))
		if err != nil {
			return nil, err
		}
		line[i] = byte(v)
		line[i+1] = byte(v >> 8)
		line[i+2] = byte(v >> 16)
		line[i+3] = byte(v >> 24)
	}
	return line, nil
}

// LineOrAddr returns the line-aligned address for DRAM interleaving.
func (p *Package) LineOrAddr(lineSize int) uint32 {
	return p.Addr &^ (uint32(lineSize) - 1)
}

// DRAM models the off-chip memory channels as simple latency behind ports
// with a minimum inter-access gap (bandwidth), per paper §III: "DRAM is
// modeled as simple latency".
type DRAM struct {
	sys      *System
	nextFree []engine.Time
}

func newDRAM(sys *System) *DRAM {
	return &DRAM{sys: sys, nextFree: make([]engine.Time, sys.Cfg.DRAMPorts)}
}

// access schedules one line access starting no earlier than at and returns
// its completion time. Channels are hash-interleaved (like the cache
// modules) so strided traffic cannot degenerate onto one port.
func (d *DRAM) access(lineAddr uint32, at engine.Time) engine.Time {
	cfg := d.sys.Cfg
	h := (uint64(lineAddr>>d.sys.lineShift) + d.sys.hashSalt) * 0xbf58476d1ce4e5b9
	port := int((h >> 35) % uint64(len(d.nextFree)))
	start := at
	if d.nextFree[port] > start {
		start = d.nextFree[port]
	}
	d.nextFree[port] = start + cfg.DRAMGapCycles*cfg.DRAMPeriod
	d.sys.Stats.DRAMAccesses[port]++
	return start + cfg.DRAMLatency*cfg.DRAMPeriod
}

// moduleOf hashes a byte address to its home cache module. A multiplicative
// hash over the line address (salted by the config seed) spreads hotspots,
// implementing the LS-unit address hashing of the paper.
func (s *System) moduleOf(addr uint32) int {
	line := addr >> s.lineShift
	h := (uint64(line) + s.hashSalt) * 0x9e3779b97f4a7c15
	return int((h >> 33) % uint64(len(s.modules)))
}
