package cycle

import (
	"fmt"
	"math/bits"

	"xmtgo/internal/asm"
	"xmtgo/internal/isa"
	"xmtgo/internal/sim/engine"
	"xmtgo/internal/sim/funcmodel"
	"xmtgo/internal/sim/funcvm"
	"xmtgo/internal/sim/stats"
	"xmtgo/internal/sim/trace"
)

// Cluster groups TCUs and the resources they share: the expensive multiply/
// divide and floating-point units, the cluster read-only cache, and the ICN
// send port (paper Fig. 1 and §II). All clusters tick inside one
// macro-actor on the cluster clock domain.
//
// Cluster implements engine.WindowShard: it executes one or more cycles per
// scheduler event, marking the outbox with per-cycle segments, and replays
// one segment per CommitCycle in (cycle, cluster) order — the interleaving
// of a serial, one-cycle-per-event simulation. In optimistic mode it
// additionally snapshots its window-entry state so an overrun past the
// consensus window end can be rolled back and replayed.
type Cluster struct {
	sys  *System
	id   int
	tcus []*TCU

	// issue is the program's lowered issue-record stream and text its
	// source instructions (System.issue / Prog.Text), stats this cluster's
	// entry of Stats.Cluster: held here so the per-issue path reaches them
	// without walking through the System.
	issue []funcvm.IssueRec
	text  []isa.Instr
	stats *stats.ClusterStats
	// region is the spawn region whose instructions were last broadcast to
	// this cluster (SpawnUnit.region; nil before the first spawn): the only
	// pcs its TCUs may fetch.
	region *asm.SpawnRegion
	// observed is set while any per-issue observer is attached (instruction
	// trace, event ring, profiler shard): one test on the issue path.
	// filtered is set while filter plug-ins are attached (System.start): one
	// test per replayed record.
	observed bool
	filtered bool

	// Shared functional units: unitFreeAt[i] is the cluster cycle unit i
	// becomes available, the nFPU floating-point units first, then the
	// multiply/divide units (one array: one cache line for both pools).
	// poolNext[p] is the earliest of pool p's (0 = FPU, 1 = MDU), kept by
	// acquire: the cycle its first unit frees, so a refusal is one compare.
	unitFreeAt []int64
	nFPU       int
	poolNext   [2]int64

	// The issue-side sets: issueSets[w][k] is word w of set k, bit i of it
	// TCU 64w+i. A word's four sets sit side by side, so a state change or
	// the visit of 64 TCUs reads one cache line, whatever the cluster width.
	//
	// setRunning has a TCU's bit while it is running: the only TCUs whose
	// tick can do anything. Stalled ones wait on the stall calendar, blocked
	// ones (memory, prefix sum, fence, drain) on the delivery that unblocks
	// them. Maintained by TCU.setState.
	//
	// setWaiting+p has a TCU's bit while it sits on an instruction whose
	// acquire of pool p was refused at its latest issue attempt. Such a TCU
	// retries every cycle, and once no unit of the pool is free at the cycle
	// the retry can only be refused again — its one effect being
	// FPUWaitCycles — so Tick accounts it without visiting the TCU. Cleared
	// by TCU.unpark whenever the TCU stops being "running, about to re-issue
	// that instruction".
	//
	// The stall calendar: setStalled has a TCU's bit while it is tcuStalled,
	// and stallRing[w][k%stallRingSize] holds word w of the stalled TCUs to
	// look at again at cluster cycle k — the end of their stall, or the
	// ring's horizon for a longer one, which re-arms. lastTick is the cycle
	// of the latest Tick: the next one pops every slot since, because a
	// SetPeriod re-base under an edge that was already pending skips cycle
	// numbers (and a gated clock repeats one).
	issueSets [][4]uint64
	stallRing [][stallRingSize]uint64
	lastTick  int64

	// ro is the cluster read-only cache (tags only; constants are read from
	// shared memory and the tags are invalidated at spawn boundaries).
	ro *tagArray

	// sendQ is the ICN injection queue, drained by the ICN macro-actor at
	// ICNInjectPerCyc packages per ICN cycle.
	sendQ    []*Package
	sendQCap int

	// ob holds the window's deferred shared-state effects; Tick (the compute
	// phase) may run concurrently with other clusters' and must route every
	// shared mutation through here (see outbox.go).
	ob outbox

	// evRing buffers this cluster's structured trace events between outbox
	// commits (nil when event tracing is off). Filled from the compute phase
	// and from this cluster's own delivery events; both are exclusive to the
	// cluster, so no locking is needed.
	evRing *trace.Ring

	// prof is this cluster's cycle-profiler shard (nil when profiling is
	// off); same ownership rules as evRing.
	prof *stats.ProfShard

	// nActive counts TCUs in any state but idle/done/dead: the BusyCycles
	// attribution check without scanning every TCU.
	nActive int

	// Bounded-lookahead window state (engine.WindowShard).
	winBase   int64 // absolute cluster cycle of window cycle 0
	winEvBase int   // evRing length at BeginWindow (rollback truncation point)
	deferProf bool  // optimistic: buffer profile PCs until the cycle commits
	profPend  []int32
	snap      clusterSnap

	// pkgFree recycles Packages. Allocation happens in this cluster's
	// compute phase; System.route frees a package after its delivery
	// commits. The two never overlap in time (deliveries are scheduler
	// events, the compute phase runs between them), so no locking is needed.
	pkgFree pkgPool
}

func newCluster(sys *System, id int) *Cluster {
	cfg := sys.Cfg
	c := &Cluster{
		sys:        sys,
		id:         id,
		issue:      sys.issue,
		text:       sys.Prog.Text,
		stats:      &sys.Stats.Cluster[id],
		unitFreeAt: make([]int64, cfg.FPUsPerCluster+cfg.MDUsPerCluster),
		nFPU:       cfg.FPUsPerCluster,
		sendQCap:   8 * cfg.ICNInjectPerCyc,
	}
	if cfg.ROCacheLines > 0 {
		c.ro = newTagArray(cfg.ROCacheLines, 2, cfg.ROCacheLineSize)
	}
	words := (cfg.TCUsPerCluster + 63) / 64
	c.issueSets = make([][4]uint64, words)
	c.stallRing = make([][stallRingSize]uint64, words)
	// One backing array per cluster: the tick walks its TCUs in index order,
	// so their hot state sits in consecutive memory.
	store := make([]TCU, cfg.TCUsPerCluster)
	for i := range store {
		t := &store[i]
		*t = TCU{
			sys:     sys,
			cluster: c,
			id:      id*cfg.TCUsPerCluster + i,
			local:   i,
			pbuf:    newPrefetchBuffer(cfg.PrefetchBufEntries, cfg.CacheLineSize),
		}
		t.state = tcuIdle
		t.alive = true
		c.tcus = append(c.tcus, t)
	}
	return c
}

// The sets of Cluster.issueSets.
const (
	setRunning = 0 // tcuRunning
	setWaiting = 1 // setWaiting+p: refused a unit of pool p (0 = FPU, 1 = MDU)
	setStalled = 3 // tcuStalled
)

// stallRingSize is the stall calendar's reach in cycles (a power of two).
// Every shared-unit latency is at most 16; a longer read-only-cache stall
// re-arms at the horizon.
const stallRingSize = 32

// Tick advances every TCU of the cluster one cluster cycle. It visits only
// the TCUs that issue this cycle: running TCUs, which include the stalls
// that end now, minus the shared-unit waiters whose retry is known to be
// refused. It walks the sets a word (64 TCUs) at a time; no TCU's issue
// changes another's state, so each word's TCUs see what a walk of the
// whole cluster would show them.
func (c *Cluster) Tick(cycle int64, now engine.Time) bool {
	busy := false
	for w := range c.issueSets {
		g := &c.issueSets[w]
		if g[setStalled] != 0 {
			c.expireStalls(w, cycle)
			// A stall still running keeps the domain ticking until it ends.
			busy = busy || g[setStalled] != 0
		}
		// Waiters of a pool with no free unit at their word's turn are
		// refused whatever runs before them: parked in bulk. The others are
		// refused once lower-indexed TCUs have taken every unit that freed,
		// which poolNext says at their turn. Observers see each retry (trace
		// line, event, profile sample), so an observed cluster visits them
		// all.
		var parked, atTurn uint64
		if wait := g[setWaiting] | g[setWaiting+1]; wait != 0 && !c.observed {
			for p, next := range c.poolNext {
				if next > cycle {
					parked |= g[setWaiting+p]
				}
			}
			atTurn = wait &^ parked
			if parked != 0 {
				c.stats.FPUWaitCycles += uint64(bits.OnesCount64(parked))
				busy = true
			}
		}
		// Iterate a copy of the word: a TCU that stalls or blocks leaves
		// setRunning, but no TCU's issue changes another's state, so each
		// visit finds its TCU running.
		for m := g[setRunning] &^ parked; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			if bit := uint64(1) << uint(i); atTurn&bit != 0 {
				p := 1
				if g[setWaiting]&bit != 0 {
					p = 0
				}
				if c.poolNext[p] > cycle {
					c.stats.FPUWaitCycles++
					busy = true
					continue
				}
			}
			if c.tcus[w<<6|i].run(c, cycle, now) {
				busy = true
			}
		}
	}
	c.lastTick = cycle
	if c.nActive > 0 {
		c.stats.BusyCycles++
	}
	return busy
}

// pool returns the free-at cycles of one shared-unit pool (0 = FPU, 1 = MDU).
func (c *Cluster) pool(p int) []int64 {
	if p == 0 {
		return c.unitFreeAt[:c.nFPU]
	}
	return c.unitFreeAt[c.nFPU:]
}

// poolOf maps a shared functional unit to its pool index.
func poolOf(unit isa.Unit) int {
	if unit == isa.UnitFPU {
		return 0
	}
	return 1
}

// acquire takes the first free unit of pool p at the given cycle for
// latency cycles; it reports false when every unit is busy.
func (c *Cluster) acquire(p int, cycle, latency int64) bool {
	if c.poolNext[p] > cycle {
		return false
	}
	pool := c.pool(p)
	next, took := cycle+latency, false
	for i, freeAt := range pool {
		if !took && freeAt <= cycle {
			freeAt, took = cycle+latency, true
			pool[i] = freeAt
		}
		next = min(next, freeAt)
	}
	c.poolNext[p] = next
	return true
}

// expireStalls moves the TCUs of word w whose stall ends by cycle from the
// stall calendar into setRunning, popping the word's slot of every cycle
// since the last tick, and re-arms those whose stall reaches past the ring's
// horizon.
func (c *Cluster) expireStalls(w int, cycle int64) {
	ring := &c.stallRing[w]
	var due uint64
	for k := max(c.lastTick+1, cycle-stallRingSize+1); k <= cycle; k++ {
		slot := &ring[k&(stallRingSize-1)]
		due |= *slot
		*slot = 0
	}
	// A bit of a TCU that left its stall some other way is stale: masked out
	// here, or re-armed if the TCU has stalled again since.
	for due &= c.issueSets[w][setStalled]; due != 0; due &= due - 1 {
		t := c.tcus[w<<6|bits.TrailingZeros64(due)]
		if cycle < t.stallUntil {
			c.arm(t, cycle)
		} else {
			t.setState(tcuRunning)
		}
	}
}

// arm enters a stalled TCU on the stall calendar at the end of its stall,
// or at the horizon if that lies beyond the ring.
func (c *Cluster) arm(t *TCU, cycle int64) {
	at := min(t.stallUntil, cycle+stallRingSize-1)
	c.stallRing[t.local>>6][at&(stallRingSize-1)] |= 1 << (uint(t.local) & 63)
}

// count records one issue of r. The issue counts in the cluster's stats row
// at once, and the outbox logs it for the commit.
func (c *Cluster) count(r *funcvm.IssueRec) {
	c.stats.ByUnit[r.Unit]++
	c.ob.log = append(c.ob.log, r.Op)
}

// replay commits one contiguous range of the outbox: records [rlo,rhi), the
// issues logged in [llo,lhi), and ring events [elo,ehi). The issues logged
// before a record commit before that record replays, as in a serial
// simulation.
//
// Once the simulation has failed or halted, replay stops: a later record
// from the same tick (a ps request, a syscall print) would otherwise still
// take effect — bumping PsOps for a request whose response can never run,
// or printing past a halt — which both double-counts against the serial
// semantics and varies with how much work the tick batched. First failure
// wins; the rest of the outbox is discarded, and the issues from the stop
// on are taken back: from the stopping record's, or from llo when the range
// starts stopped. (See TestCommitStopsReplayAfterFailure.)
func (c *Cluster) replay(rlo, rhi, llo, lhi, elo, ehi int32, now engine.Time) {
	s := c.sys
	if s.evlog != nil && ehi > elo {
		s.evlog.DrainRange(c.evRing, int(elo), int(ehi))
	}
	from, i := llo, rlo
	for ; i < rhi && s.err == nil && !s.halted; i++ {
		r := &c.ob.recs[i]
		from = r.logIdx
		if c.filtered {
			c.feed(from)
		}
		switch r.kind {
		case obStat:
			*r.stat += r.n
		case obTrace:
			s.traceFn(r.t.id, r.pc, *r.in, now)
		case obPS:
			s.ps.request(r.t, r.in, now)
		case obSys:
			halt, err := s.Machine.DoSys(&r.t.ctx, r.in.Imm)
			if err != nil {
				s.fail(&funcmodel.RuntimeError{PC: r.pc, Line: r.in.Line, In: *r.in, Err: err})
			} else if halt {
				s.halt()
			}
		case obWakeICN:
			s.icn.ports.Set(c.id)
			s.wakeICN(now)
		case obAsync:
			s.scheduleAsyncDeliver(r.pkg, r.at)
		case obDone:
			s.spawn.tcuDone(r.t, now)
		case obDecomm:
			// The TCU hit its safe point mid-thread: decommission and
			// re-dispatch the orphaned virtual thread.
			s.decommissionTCU(r.t, true, true, now)
		case obFail:
			s.fail(r.err)
		case obRace:
			s.raceRead(r.t.id, uint32(r.n), r.in.Line, now)
		}
		*r = obRec{}
	}
	if s.err != nil || s.halted {
		clear(c.ob.recs[i:rhi])
		c.uncount(from)
		return
	}
	if c.filtered {
		c.feed(lhi)
	}
}

// feed hands the logged issues before index upTo that the filter plug-ins
// have not seen to them, in issue order.
func (c *Cluster) feed(upTo int32) {
	for _, op := range c.ob.log[c.ob.fed:upTo] {
		for _, f := range c.sys.Stats.Filters() {
			f.Instr(isa.Op(op), false)
		}
	}
	c.ob.fed = upTo
}

// uncount takes back the window's issues from log index from on: a stop
// discards them, but they counted when they issued. The log is cut there,
// so the stopped window's later segments find nothing left to take back.
func (c *Cluster) uncount(from int32) {
	if int(from) >= len(c.ob.log) {
		return
	}
	for _, op := range c.ob.log[from:] {
		c.stats.ByUnit[isa.Op(op).Meta().Unit]--
	}
	c.ob.log = c.ob.log[:from]
}

// BeginWindow opens a window at the given cluster cycle (engine.WindowShard).
// The buffers are clean already — endWindow and Rollback leave them so, and
// nothing but this cluster's own compute phase writes its outbox. With
// snapshot set (optimistic mode) the cluster captures its window-entry state
// so an overrun can be rolled back.
func (c *Cluster) BeginWindow(cycle int64, snapshot bool) {
	c.winBase = cycle
	if !snapshot {
		return
	}
	c.winEvBase = 0
	if c.evRing != nil {
		c.winEvBase = c.evRing.Len()
	}
	c.deferProf = c.prof != nil
	c.capture()
}

// WindowTick runs one window cycle's compute phase and marks its segment.
func (c *Cluster) WindowTick(cycle int64, now engine.Time) (busy, closing bool) {
	busy = c.Tick(cycle, now)
	ev := 0
	if c.evRing != nil {
		ev = c.evRing.Len()
	}
	closing = c.ob.mark(cycle, ev, len(c.profPend))
	// Keep enough ring headroom for one more cycle's worth of events: a
	// near-full ring closes the window, so multi-cycle batching can never
	// drop an event that one-cycle windows would have kept (they drain the
	// ring every cycle).
	if !closing && c.evRing != nil && c.evRing.Cap()-c.evRing.Len() < len(c.tcus) {
		closing = true
	}
	return busy, closing
}

// CommitCycle replays window cycle k's outbox segment at that cycle's edge
// time and, on the window's last cycle, closes the window
// (engine.WindowShard). Commits run serially, all clusters at cycle k before
// any cluster at cycle k+1: the (cycle, cluster) interleaving of one-cycle
// windows, whatever the span.
func (c *Cluster) CommitCycle(k int, now engine.Time, last bool) {
	if k < len(c.ob.segs) {
		s := c.sys
		seg := &c.ob.segs[k]
		// Cycle 0 drains ring events from 0, not winEvBase: events emitted
		// by serial contexts between windows (delivery unblocks, PS
		// responses) sit below winEvBase and would otherwise be discarded by
		// endWindow's reset — they belong to the next commit. winEvBase is
		// only the optimistic Rollback truncation point.
		var rlo, llo, plo, elo int32
		if k > 0 {
			prev := &c.ob.segs[k-1]
			rlo, llo, plo, elo = prev.rec, prev.log, prev.prof, prev.ev
		}
		// Replay-order guard: a segment claiming a cycle other than
		// winBase+k would silently reorder shared effects against other
		// clusters'. Fail loudly (diagnostic, first-failure-wins discard)
		// instead of corrupting state.
		want := c.winBase + int64(k)
		s.beginCommit(want, now)
		if seg.cycle != want {
			s.fail(fmt.Errorf("cycle: window replay out of order: cluster %d segment %d buffered effects for cycle %d, expected %d (window start %d)",
				c.id, k, seg.cycle, want, c.winBase))
			c.uncount(llo)
		} else {
			c.replay(rlo, seg.rec, llo, seg.log, elo, seg.ev, now)
			// Deferred profile samples (optimistic mode): issues from cycles
			// past the consensus window end were truncated by the rollback
			// replay, so applying here keeps profiles identical to the
			// direct-emit modes.
			if c.deferProf {
				for _, pc := range c.profPend[plo:seg.prof] {
					c.prof.Issue(int(pc))
				}
			}
		}
		s.endCommit()
	}
	if last {
		c.endWindow()
	}
}

// endWindow closes the window after every cycle's segment has committed.
func (c *Cluster) endWindow() {
	if c.sys.evlog != nil {
		c.sys.evlog.ResetRing(c.evRing)
	}
	c.ob.reset()
	c.profPend = c.profPend[:0]
	c.deferProf = false
}

// Rollback rewinds the cluster to its window-entry snapshot (optimistic
// mode: this cluster ran past the consensus window end). The engine
// re-ticks cycles 0..E afterwards; with all cross-cluster inputs frozen the
// replay is deterministic. Packages allocated by the rolled-back cycles are
// deliberately NOT returned to the freelist: a restored pre-window
// pendingSend may alias one of them, and the garbage collector reclaiming a
// few overrun allocations is cheaper than corrupting the pool.
func (c *Cluster) Rollback() {
	c.restore()
	if c.evRing != nil {
		c.evRing.Truncate(c.winEvBase)
	}
	for i := range c.ob.recs {
		c.ob.recs[i] = obRec{}
	}
	c.ob.reset()
	c.profPend = c.profPend[:0]
}

// tcuSnap captures one TCU's window-entry state for optimistic rollback.
type tcuSnap struct {
	hot            tcuHot
	pendingSendPkg Package // contents of *hot.pendingSend (retries mutate Issued)
	pbuf           []pbufEntry
}

// clusterSnap captures a cluster's window-entry state. Only state the
// compute phase can mutate is saved: everything else (shared memory, the
// scheduler, other clusters) is frozen for the window's duration by
// construction.
type clusterSnap struct {
	tcus          []tcuSnap
	unitFreeAt    []int64
	roLastUse     []int64
	sendQLen      int
	asyncPortFree engine.Time
	stats         stats.ClusterStats
	nActive       int
	issueSets     [][4]uint64
	stallRing     [][stallRingSize]uint64
	poolNext      [2]int64
	lastTick      int64
}

func (c *Cluster) capture() {
	s := &c.snap
	if s.tcus == nil {
		s.tcus = make([]tcuSnap, len(c.tcus))
		s.unitFreeAt = make([]int64, len(c.unitFreeAt))
		s.issueSets = make([][4]uint64, len(c.issueSets))
		s.stallRing = make([][stallRingSize]uint64, len(c.stallRing))
		if c.ro != nil {
			s.roLastUse = make([]int64, len(c.ro.lastUse))
		}
		for i, t := range c.tcus {
			s.tcus[i].pbuf = make([]pbufEntry, len(t.pbuf.entries))
		}
	}
	for i, t := range c.tcus {
		ts := &s.tcus[i]
		copy(ts.pbuf, t.pbuf.entries)
		ts.hot = t.tcuHot
		if t.pendingSend != nil {
			ts.pendingSendPkg = *t.pendingSend
		}
	}
	copy(s.unitFreeAt, c.unitFreeAt)
	if c.ro != nil {
		copy(s.roLastUse, c.ro.lastUse)
	}
	s.sendQLen = len(c.sendQ)
	s.asyncPortFree = c.sys.asyncPortFree[c.id]
	s.stats = *c.stats
	s.nActive = c.nActive
	copy(s.issueSets, c.issueSets)
	copy(s.stallRing, c.stallRing)
	s.poolNext = c.poolNext
	s.lastTick = c.lastTick
}

func (c *Cluster) restore() {
	s := &c.snap
	for i, t := range c.tcus {
		ts := &s.tcus[i]
		t.tcuHot = ts.hot
		if t.pendingSend != nil {
			*t.pendingSend = ts.pendingSendPkg
		}
		copy(t.pbuf.entries, ts.pbuf)
	}
	copy(c.unitFreeAt, s.unitFreeAt)
	if c.ro != nil {
		copy(c.ro.lastUse, s.roLastUse)
	}
	// Packages the overrun pushed past the snapshot length stay allocated
	// (see Rollback); truncating the queue un-sends them.
	for i := s.sendQLen; i < len(c.sendQ); i++ {
		c.sendQ[i] = nil
	}
	c.sendQ = c.sendQ[:s.sendQLen]
	c.sys.asyncPortFree[c.id] = s.asyncPortFree
	*c.stats = s.stats
	c.nActive = s.nActive
	copy(c.issueSets, s.issueSets)
	copy(c.stallRing, s.stallRing)
	c.poolNext = s.poolNext
	c.lastTick = s.lastTick
}

// send enqueues a package for ICN injection; it fails (backpressure) when
// the send queue is full, making the TCU retry next cycle. In asynchronous
// interconnect mode the package leaves through the handshake port instead.
// Runs in the compute phase: injection-port state is cluster-local, but the
// ICN wake / delivery scheduling and traversal statistics are deferred.
// now is the issuing cycle's edge time (under lookahead this runs ahead of
// the scheduler clock, so Sched.Now() would be wrong).
func (c *Cluster) send(p *Package, now engine.Time) bool {
	p.Module = c.sys.moduleOf(p.Addr)
	if c.sys.Cfg.ICNAsync {
		// Backpressure: refuse when the port has a deep backlog.
		if c.sys.asyncPortFree[c.id] > now+8*c.sys.Cfg.ICNAsyncGapTicks {
			c.stats.SendStallCycles++
			return false
		}
		arrive := c.sys.asyncDepart(p, c.id, now)
		c.ob.stat(&c.sys.Stats.ICNTraversals, 1)
		c.ob.stat(&c.sys.Stats.ICNHops, uint64(c.sys.icn.hopsPerTraversal))
		c.ob.async(p, arrive)
		return true
	}
	if len(c.sendQ) >= c.sendQCap {
		c.stats.SendStallCycles++
		return false
	}
	c.sendQ = append(c.sendQ, p)
	c.ob.wakeICN()
	return true
}

// resetForSpawn prepares the cluster's TCUs for a new spawn.
func (c *Cluster) resetForSpawn(region *asm.SpawnRegion, mask uint32, bcast *[isa.NumRegs]int32) {
	c.region = region
	if c.ro != nil {
		c.ro.InvalidateAll()
	}
	for _, t := range c.tcus {
		if t.alive {
			t.resetForSpawn(region.Spawn+1, mask, bcast)
		}
	}
}

// quiesce returns all surviving TCUs to idle after a join.
func (c *Cluster) quiesce() {
	for _, t := range c.tcus {
		if t.alive {
			t.setState(tcuIdle)
			t.pendingSend = nil
		}
	}
	if c.ro != nil {
		c.ro.InvalidateAll()
	}
}
