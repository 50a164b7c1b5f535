package cycle

import (
	"fmt"

	"xmtgo/internal/isa"
	"xmtgo/internal/sim/engine"
	"xmtgo/internal/sim/funcmodel"
	"xmtgo/internal/sim/funcvm"
	"xmtgo/internal/sim/trace"
)

// tcuState is the scheduling state of one TCU.
type tcuState uint8

const (
	tcuIdle      tcuState = iota // serial mode; not participating
	tcuRunning                   // may issue at the next cluster edge
	tcuStalled                   // local/shared-unit latency until stallUntil
	tcuWaitMem                   // blocked on a memory / prefix-sum response
	tcuWaitFence                 // waiting for pending non-blocking stores (the last delivery unblocks it)
	tcuDraining                  // out of work, draining posted stores before done
	tcuDone                      // blocked at chkid; all its work is finished
	tcuDead                      // permanently decommissioned by an injected fault
)

// activeStates marks the states that count toward the cluster's BusyCycles
// attribution (everything but idle/done/dead).
const activeStates = 1<<tcuRunning | 1<<tcuStalled | 1<<tcuWaitMem |
	1<<tcuWaitFence | 1<<tcuDraining

// TCU is one lightweight parallel core: private ALU, shift and branch
// units, a prefetch buffer, and access to the cluster-shared FPU/MDU and
// the memory system. TCUs execute virtual threads handed out by the
// prefix-sum-based spawn protocol.
//
// Layout matters here: a cluster tick visits its running TCUs in index
// order, and with 1024 TCUs on the chip a TCU's lines have left the L1 by
// the time it issues again.
// tcuHot comes first and is ordered so that everything a tick reads before
// it touches an operand register — PC, stall horizon, state, flags, the
// send stash — shares the cache line that ends ctx; the struct is padded to
// a whole number of lines and each cluster's TCUs live in one backing array
// (TestTCULayout pins both).
type TCU struct {
	tcuHot

	sys     *System
	cluster *Cluster
	id      int // global TCU index
	local   int // index within the cluster

	pbuf prefetchBuffer

	_ [tcuPad]byte
}

// tcuPad rounds TCU up to a multiple of the 64-byte cache line.
const tcuPad = 48

// tcuHot is everything of a TCU the compute phase mutates (besides the
// prefetch-buffer entries): the optimistic engine snapshots and restores it
// as one value. ctx comes first so that the PC that ends it is followed at
// once by what every tick tests — stall horizon, state, flags, posted-store
// count, send stash — all on one cache line.
type tcuHot struct {
	ctx        funcmodel.Context // PC is its last field (bytes 144..152)
	stallUntil int64             // cluster cycle (tcuStalled)
	state      tcuState

	// Fault-injection state (docs/ROBUSTNESS.md). alive starts true and goes
	// false exactly once, at decommission. failing marks a TCU hit by a
	// permanent fault mid-thread; it decommissions itself at the next safe
	// point in its compute phase. doneCounted records whether this TCU's
	// completion has been counted by the spawn unit (its obDone committed) —
	// needed so decommissioning a done TCU adjusts the join count correctly.
	// None of the three changes inside a compute phase, so carrying them in
	// the rollback snapshot is harmless.
	alive       bool
	failing     bool
	doneCounted bool

	waitPS      bool // the tcuWaitMem block is on the prefix-sum unit, not memory
	waitingPbuf bool // ... or on an in-flight prefetch fill (pendingPbuf*)

	pendingNB int32 // outstanding non-blocking stores
	blockPC   int32 // pc of the instruction blocked in tcuWaitMem

	// pendingSend stashes a package the ICN injection port refused, so the
	// retry next cycle skips effective-address computation and package
	// construction. Only ops whose retry has no other per-attempt side
	// effect use it (psm, plain loads, stores — not lwro, whose RO-cache
	// probe counts a miss per attempt, and not pref, which drops). Cleared
	// by any delivery at this TCU: a prefetch fill can turn the retried load
	// into a buffer hit, so the slow path must re-decide.
	pendingSend   *Package
	pendingSendPC int32

	// pendingPbufPC/Addr identify the load blocked on an in-flight prefetch
	// fill (so it can commit straight from the filled line).
	pendingPbufPC   int32
	pendingPbufAddr uint32

	memWaitStart engine.Time
}

// setState transitions the TCU's scheduling state, maintaining the
// cluster's running and stalled sets and active count. Every state write
// after construction must go through here (or restore the sets wholesale,
// as the optimistic rollback does).
func (t *TCU) setState(ns tcuState) {
	os := t.state
	if os == ns {
		return
	}
	t.state = ns
	// The sets hold exactly the running and the stalled TCUs, and only a
	// running one waits on a shared unit: the old state names the bits to
	// clear.
	g, bit := t.sets()
	switch os {
	case tcuRunning:
		g[setRunning] &^= bit
		g[setWaiting] &^= bit // unpark
		g[setWaiting+1] &^= bit
	case tcuStalled:
		g[setStalled] &^= bit
	}
	switch ns {
	case tcuRunning:
		g[setRunning] |= bit
	case tcuStalled:
		g[setStalled] |= bit
	}
	c := t.cluster
	if activeStates&(1<<ns) != 0 {
		if activeStates&(1<<os) == 0 {
			c.nActive++
		}
	} else if activeStates&(1<<os) != 0 {
		c.nActive--
	}
}

// unpark withdraws the TCU from the cluster's shared-unit wait sets. Called
// whenever something other than its own next issue attempt decides what the
// TCU does next: leaving the running state, a context reset or adoption, a
// fault marking it failing.
func (t *TCU) unpark() {
	g, bit := t.sets()
	g[setWaiting] &^= bit
	g[setWaiting+1] &^= bit
}

// sets returns the word of the cluster's issue-side sets that holds the TCU,
// and the TCU's bit in it.
func (t *TCU) sets() (*[4]uint64, uint64) {
	return &t.cluster.issueSets[t.local>>6], 1 << (uint(t.local) & 63)
}

// resetForSpawn re-initializes the TCU at spawn onset: zeroed registers
// with the broadcast master-register image applied, PC at the first
// broadcast instruction.
func (t *TCU) resetForSpawn(pc int, bcastMask uint32, bcast *[isa.NumRegs]int32) {
	t.ctx = funcmodel.Context{ID: t.id, PC: pc}
	for r := 0; r < isa.NumRegs; r++ {
		if bcastMask&(1<<uint(r)) != 0 {
			t.ctx.Reg[r] = bcast[r]
		}
	}
	t.setState(tcuRunning)
	t.unpark()
	t.stallUntil = 0
	t.pendingNB = 0
	t.waitingPbuf = false
	t.doneCounted = false
	t.pendingSend = nil
	t.pbuf.invalidateAll()
}

// run is one cycle of a running TCU: it issues its next instruction, or
// retries a refused send, or decommissions it at its safe point. c is
// t.cluster, passed down so the issue path never reads it from the TCU. It
// returns whether the TCU needs further ticks (a blocked TCU is woken by its
// response event instead).
func (t *TCU) run(c *Cluster, cycle int64, now engine.Time) bool {
	if t.failing {
		// Safe point: no in-flight blocking request. Posted stores must
		// still drain (the memory system would deliver into a dead TCU);
		// until then the TCU issues nothing.
		if t.pendingNB > 0 {
			return false
		}
		c.ob.decomm(t)
		t.setState(tcuDead)
		return false
	}
	if t.pendingSend != nil {
		return t.retrySend(c, now)
	}
	return t.issue(c, cycle, now)
}

// observeIssue feeds one issue attempt at pc to whichever observers are
// attached (Cluster.observed): the instruction trace, the structured event
// ring and the cycle profiler. Profile samples defer to the commit phase in
// optimistic mode (a rolled-back cycle must not leave samples behind).
func (t *TCU) observeIssue(pc int, now engine.Time) {
	c := t.cluster
	in := &c.text[pc]
	if t.sys.traceFn != nil {
		c.ob.trace(t, pc, in)
	}
	if c.evRing != nil {
		c.evRing.Emit(trace.Event{TS: now, Dur: t.sys.clusterClock.Period(),
			Kind: trace.EvInstr, Op: in.Op, Ctx: int32(t.id), PC: int32(pc), Arg: int64(in.Line)})
	}
	switch {
	case c.prof == nil:
	case c.deferProf:
		c.profPend = append(c.profPend, int32(pc))
	default:
		c.prof.Issue(pc)
	}
}

// fault aborts the simulation with a runtime error at pc (via the outbox:
// issue runs in the compute phase).
func (t *TCU) fault(pc int, err error) bool {
	in := &t.cluster.text[pc]
	t.cluster.ob.fail(&funcmodel.RuntimeError{PC: pc, Line: in.Line, In: *in, Err: err})
	return false
}

// stashSend records a refused injection for the fast retry path and keeps
// the PC on the refused instruction, exactly like the full re-issue would.
func (t *TCU) stashSend(p *Package, pc int) bool {
	t.ctx.PC = pc
	t.pendingSend = p
	t.pendingSendPC = int32(pc)
	return true
}

// retrySend re-attempts a previously refused injection. The single-cycle
// engine re-runs the whole issue on every retry — emitting trace, event and
// profile records per attempt and refreshing the package's issue time — so
// the fast path replicates exactly that, minus the redundant
// effective-address computation and package construction.
func (t *TCU) retrySend(c *Cluster, now engine.Time) bool {
	p := t.pendingSend
	pc := int(t.pendingSendPC)
	if c.observed {
		t.observeIssue(pc, now)
	}
	p.Issued = now
	if !c.send(p, now) {
		return true
	}
	t.pendingSend = nil
	t.ctx.PC = pc + 1
	r := &c.issue[pc]
	c.count(r)
	switch r.Class {
	case funcvm.ClsPsm:
		c.ob.stat(&c.sys.Stats.PsmOps, 1)
		t.blockMem(now, pc)
		return false
	case funcvm.ClsStoreNB:
		t.pendingNB++
		return true
	default: // plain loads and blocking stores
		t.blockMem(now, pc)
		return false
	}
}

// issue dispatches the instruction at the TCU's PC on its lowered issue
// record (funcvm.IssueRec): class, operand slots and latency were decided
// once when the program was lowered, so nothing here decodes an isa.Instr —
// Prog.Text is only pointed into, for packages and deferred records. It
// runs in the compute phase of the cluster tick, which may execute
// concurrently with other clusters: it only mutates TCU/cluster-local state
// and reads shared state; every shared effect goes through the cluster
// outbox (see outbox.go).
func (t *TCU) issue(c *Cluster, cycle int64, now engine.Time) bool {
	region := c.region
	if region == nil {
		t.setState(tcuIdle)
		return false
	}
	pc := t.ctx.PC
	if pc <= region.Spawn || pc > region.Join {
		c.ob.fail(fmt.Errorf("cycle: TCU %d fetched instruction %d outside the broadcast region (%d,%d]",
			t.id, pc, region.Spawn, region.Join))
		return false
	}
	r := &c.issue[pc]
	t.ctx.PC = pc + 1
	if c.observed {
		t.observeIssue(pc, now)
	}
	m := c.sys.Machine

	switch r.Class {
	case funcvm.ClsCompute:
		c.count(r)
		if err := m.ExecCompute(&t.ctx, isa.Op(r.Op), r.Rd, r.Rs, r.Rt, r.Imm); err != nil {
			return t.fault(pc, err)
		}
		return true

	case funcvm.ClsMDU, funcvm.ClsFPU:
		p := poolOf(r.Unit)
		if !c.acquire(p, cycle, int64(r.Lat)) {
			c.stats.FPUWaitCycles++
			t.ctx.PC = pc // retry next cycle
			g, bit := t.sets()
			g[setWaiting+p] |= bit
			return true
		}
		c.count(r)
		if err := m.ExecCompute(&t.ctx, isa.Op(r.Op), r.Rd, r.Rs, r.Rt, r.Imm); err != nil {
			return t.fault(pc, err)
		}
		t.stall(c, cycle, int64(r.Lat))
		return true

	case funcvm.ClsBranch:
		c.count(r)
		taken, target, err := m.EvalBranch(&t.ctx, isa.Op(r.Op), r.Rs, r.Rt, int(r.Target))
		if err != nil {
			return t.fault(pc, err)
		}
		if taken {
			t.ctx.PC = target
		}
		return true

	case funcvm.ClsLoad: // lw, lb, lbu
		addr := m.EffAddr(&t.ctx, r.Rs, r.Imm)
		if e := t.pbuf.find(addr); e != nil {
			c.count(r)
			if e.ready {
				c.ob.stat(&c.sys.Stats.PrefetchHits, 1)
				e.lastUse = cycle
				// xmtsan: a hit on prefetched data is exactly the stale-read
				// mechanism of paper Fig. 6 — record it as this TCU's read.
				if c.sys.race != nil {
					c.ob.race(t, addr, &c.text[pc])
				}
				t.ctx.SetReg(r.Rd, extractPbuf(e, isa.Op(r.Op), addr))
				return true
			}
			// The line's fill is in flight: wait for it instead of issuing
			// duplicate traffic; the load commits straight from the fill.
			e.waiter = t
			t.waitingPbuf = true
			t.pendingPbufPC = int32(pc)
			t.pendingPbufAddr = addr
			t.blockMem(now, pc)
			return false
		}
		p := c.pkgFree.alloc()
		*p = Package{Kind: PkgLoad, In: &c.text[pc], Cluster: c.id, TCU: t.local,
			Addr: addr, Issued: now}
		if !c.send(p, now) {
			return t.stashSend(p, pc) // retry next cycle
		}
		c.count(r)
		t.blockMem(now, pc)
		return false

	case funcvm.ClsStore, funcvm.ClsStoreNB: // sw, sb, sw.nb
		kind := PkgStore
		if r.Class == funcvm.ClsStoreNB {
			kind = PkgStoreNB
		}
		p := c.pkgFree.alloc()
		*p = Package{Kind: kind, In: &c.text[pc], Cluster: c.id, TCU: t.local,
			Addr: m.EffAddr(&t.ctx, r.Rs, r.Imm), Data: t.ctx.Reg[r.Rd&31], Issued: now}
		if !c.send(p, now) {
			return t.stashSend(p, pc)
		}
		c.count(r)
		if kind == PkgStoreNB {
			t.pendingNB++
			return true
		}
		t.blockMem(now, pc)
		return false

	case funcvm.ClsLoadRO:
		c.count(r)
		addr := m.EffAddr(&t.ctx, r.Rs, r.Imm)
		if c.ro != nil && c.ro.Lookup(addr, cycle) {
			c.ob.stat(&c.sys.Stats.ROHits, 1)
			v, err := m.LoadValue(isa.Op(r.Op), addr)
			if err != nil {
				return t.fault(pc, err)
			}
			if c.sys.race != nil {
				c.ob.race(t, addr, &c.text[pc])
			}
			t.ctx.SetReg(r.Rd, v)
			t.stall(c, cycle, c.sys.Cfg.ROCacheLatency)
			return true
		}
		c.ob.stat(&c.sys.Stats.ROMisses, 1)
		p := c.pkgFree.alloc()
		*p = Package{Kind: PkgLoad, In: &c.text[pc], Cluster: c.id, TCU: t.local,
			Addr: addr, Issued: now}
		if !c.send(p, now) {
			// No stash: the RO-cache probe above counts a miss per attempt.
			c.pkgFree.free(p)
			t.ctx.PC = pc
			return true
		}
		t.blockMem(now, pc)
		return false

	case funcvm.ClsPsm:
		p := c.pkgFree.alloc()
		*p = Package{Kind: PkgPsm, In: &c.text[pc], Cluster: c.id, TCU: t.local,
			Addr: m.EffAddr(&t.ctx, r.Rs, r.Imm), Data: t.ctx.Reg[r.Rd&31], Issued: now}
		if !c.send(p, now) {
			return t.stashSend(p, pc)
		}
		c.count(r)
		c.ob.stat(&c.sys.Stats.PsmOps, 1)
		t.blockMem(now, pc)
		return false

	case funcvm.ClsPref:
		c.count(r)
		addr := m.EffAddr(&t.ctx, r.Rs, r.Imm)
		la := t.pbuf.lineOf(addr)
		if t.pbuf.find(addr) != nil {
			return true // already buffered or in flight
		}
		e := t.pbuf.allocate(la, cycle)
		if e == nil {
			return true // all slots in flight; drop the hint
		}
		p := c.pkgFree.alloc()
		*p = Package{Kind: PkgPrefetch, In: &c.text[pc], Cluster: c.id, TCU: t.local,
			Addr: la, LineAddr: la, Issued: now}
		if !c.send(p, now) {
			e.valid = false // could not inject; drop
			c.pkgFree.free(p)
			return true
		}
		c.ob.stat(&c.sys.Stats.PrefetchFills, 1)
		return true

	case funcvm.ClsPs, funcvm.ClsGrr, funcvm.ClsGrw:
		c.count(r)
		t.blockMem(now, pc)
		t.waitPS = true
		// The prefix-sum unit paces requests through a shared per-cycle
		// window; submit at commit so slots are granted in cluster order.
		c.ob.ps(t, &c.text[pc])
		return false

	case funcvm.ClsFence:
		c.count(r)
		t.pbuf.invalidateAll()
		if t.pendingNB > 0 {
			t.setState(tcuWaitFence)
			return false
		}
		return true

	case funcvm.ClsSys:
		c.count(r)
		// Syscalls print to the shared output stream (and may halt): defer
		// to commit so output interleaves in deterministic cluster order.
		c.ob.sys(t, pc, &c.text[pc])
		return true

	case funcvm.ClsChkid:
		c.count(r)
		if t.ctx.Reg[r.Rd&31] > c.sys.spawn.high {
			t.finish(now)
			return false
		}
		return true

	case funcvm.ClsJoin:
		// Falling into join: this TCU's current virtual thread ended at the
		// region boundary; the TCU is done (it must re-grab via ps, which
		// the compiler always places before chkid, so reaching join means
		// the code simply ran off the region: treat as done).
		c.count(r)
		t.finish(now)
		return false

	default: // ClsSpawn, ClsBcast: serial-mode instructions
		return t.fault(pc, fmt.Errorf("%s executed by a parallel TCU", isa.Op(r.Op)))
	}
}

func extractPbuf(e *pbufEntry, op isa.Op, addr uint32) int32 {
	word := e.read(addr&^3, 4)
	switch op {
	case isa.OpLw:
		return word
	case isa.OpLb:
		return int32(int8(word >> (8 * (addr & 3))))
	case isa.OpLbu:
		return int32(uint8(word >> (8 * (addr & 3))))
	}
	return word
}

// stall holds the TCU for lat cycles after this one; the cluster looks at
// it again only when the stall calendar says it ends. A stall of no cycles
// (rocache_latency 0) ends before the next tick: the TCU stays running.
func (t *TCU) stall(c *Cluster, cycle, lat int64) {
	if lat <= 0 {
		return
	}
	t.setState(tcuStalled)
	t.stallUntil = cycle + lat
	c.arm(t, cycle)
}

func (t *TCU) blockMem(now engine.Time, pc int) {
	t.setState(tcuWaitMem)
	t.memWaitStart = now
	t.blockPC = int32(pc)
	t.waitPS = false
}

func (t *TCU) unblock(now engine.Time) {
	if t.state == tcuWaitMem {
		wait := now - t.memWaitStart
		if wait > 0 {
			cycles := uint64(wait / livePeriod(t.sys.clusterClock, t.sys.Cfg.ClusterPeriod))
			cs := t.cluster.stats
			if t.waitPS {
				cs.PSWaitCycles += cycles
			} else {
				cs.MemWaitCycles += cycles
			}
			if t.cluster.prof != nil {
				t.cluster.prof.Stall(int(t.blockPC), cycles)
			}
			if t.cluster.evRing != nil {
				kind := trace.EvMemWait
				if t.waitPS {
					kind = trace.EvPSWait
				}
				t.cluster.evRing.Emit(trace.Event{TS: t.memWaitStart, Dur: wait,
					Kind: kind, Op: isa.Op(t.cluster.issue[t.blockPC].Op), Ctx: int32(t.id), PC: t.blockPC})
			}
		}
		t.waitPS = false
	}
	t.setState(tcuRunning)
	t.sys.wakeClusters(now)
}

// finish marks the TCU done for this spawn and notifies the spawn unit.
// Posted stores must drain first, so the end of the spawn statement orders
// memory as the XMT memory model requires. Called from issue (compute
// phase), so the spawn-unit notification is deferred to commit.
func (t *TCU) finish(now engine.Time) {
	if t.pendingNB > 0 {
		t.setState(tcuDraining)
		return
	}
	t.setState(tcuDone)
	t.cluster.ob.done(t)
}

// deliver commits an expiring package back at the TCU (the "commit stage"
// of the paper's package life cycle).
func (t *TCU) deliver(p *Package, now engine.Time) {
	// Any delivery invalidates the fast send-retry stash: a prefetch fill
	// can turn the retried load into a buffer hit, so re-run the full issue.
	t.pendingSend = nil
	if !t.alive {
		// The TCU was decommissioned while this package was in flight (only
		// possible for non-blocking responses: a TCU with a blocking request
		// outstanding never reaches its decommission safe point). Drop it.
		return
	}
	if p.Err != nil {
		t.sys.fail(&funcmodel.RuntimeError{PC: 0, Line: p.In.Line, In: *p.In, Err: p.Err})
		return
	}
	switch p.Kind {
	case PkgLoad:
		t.ctx.SetReg(p.In.Rd, p.Data)
		if p.In.Op == isa.OpLwRO && t.cluster.ro != nil {
			t.cluster.ro.Fill(p.Addr, t.sys.clusterClock.Cycle(now))
		}
		t.recordLoadLatency(p, now)
		t.unblock(now)
	case PkgPsm:
		t.ctx.SetReg(p.In.Rd, p.Data)
		// Prefix-sum completion orders memory: flush stale prefetches.
		t.pbuf.invalidateAll()
		t.recordLoadLatency(p, now)
		t.unblock(now)
	case PkgStore:
		t.unblock(now)
	case PkgStoreNB:
		t.pendingNB--
		switch {
		case t.state == tcuWaitFence && t.pendingNB == 0:
			t.unblock(now)
		case t.state == tcuDraining && t.pendingNB == 0:
			t.setState(tcuDone)
			if t.failing {
				// Thread already finished; only the drain held the
				// decommission back. Delivery runs on the scheduler
				// goroutine, so decommission directly.
				t.sys.decommissionTCU(t, true, false, now)
			} else {
				t.sys.spawn.tcuDone(t, now)
			}
		default:
			t.sys.wakeClusters(now)
		}
	case PkgPrefetch:
		la := p.LineAddr
		for i := range t.pbuf.entries {
			e := &t.pbuf.entries[i]
			if e.valid && e.lineAddr == la && !e.ready {
				e.ready = true
				e.data = p.Line
				if e.waiter != nil {
					w := e.waiter
					e.waiter = nil
					if w.waitingPbuf {
						w.waitingPbuf = false
						ld := &t.cluster.text[w.pendingPbufPC]
						if t.sys.race != nil {
							// Delivery runs on the scheduler goroutine:
							// record the waiter's read directly.
							t.sys.raceRead(w.id, w.pendingPbufAddr, ld.Line, now)
						}
						w.ctx.SetReg(ld.Rd, extractPbuf(e, ld.Op, w.pendingPbufAddr))
						t.sys.Stats.PrefetchHits++
						w.unblock(now)
					}
				}
				break
			}
		}
		t.sys.wakeClusters(now)
	}
}

func (t *TCU) recordLoadLatency(p *Package, now engine.Time) {
	t.sys.Stats.LoadLatency.Observe(uint64(now - p.Issued))
}

// psDelivered commits a prefix-sum/global-register response.
func (t *TCU) psDelivered(in *isa.Instr, old int32, now engine.Time) {
	switch in.Op {
	case isa.OpPs, isa.OpGrr:
		t.ctx.SetReg(in.Rd, old)
	}
	if in.Op == isa.OpPs {
		// ps completion orders memory like psm: flush stale prefetches.
		t.pbuf.invalidateAll()
		// xmtsan: a ps on an application global register is the release/
		// acquire primitive; the virtual-thread-id grab at spawn onset is
		// allocation, not synchronization.
		if t.sys.race != nil && in.G != isa.GRegSpawn {
			t.sys.race.Sync(t.id)
		}
	}
	t.unblock(now)
}
