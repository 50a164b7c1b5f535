package cycle

import (
	"fmt"

	"xmtgo/internal/isa"
	"xmtgo/internal/sim/engine"
	"xmtgo/internal/sim/funcmodel"
	"xmtgo/internal/sim/funcvm"
	"xmtgo/internal/sim/stats"
	"xmtgo/internal/sim/trace"
)

// masterState is the scheduling state of the Master TCU.
type masterState uint8

const (
	masterRunning masterState = iota
	masterStalled
	masterWaitMem
	masterWaitFence
	masterWaitSpawnDrain // waiting for the write buffer before a spawn
	masterWaitJoin
	masterHalted
)

// Master is the serial core of XMT: a conventional in-order core with its
// own cache, full-strength functional units, the global register file at
// its side, and the spawn instruction that hands control to the parallel
// TCUs (paper Fig. 1).
//
// It does not poll while it waits. A latency stall (cache hit, MDU/FPU
// result) sleeps to the edge the stall ends on, and is woken sooner only
// when another event comes due first; every other wait is ended by the
// event that ends it (a delivery, the join).
//
// Model note: in serial mode the master is the only agent mutating memory
// (join completion waits for all TCU stores), so the master performs its
// memory operations architecturally at issue and sends "shadow" packages
// through the cache/ICN/DRAM components for timing only. This keeps master
// semantics exact while preserving contention and latency behaviour.
type Master struct {
	sys *System

	ctx   funcmodel.Context
	state masterState

	stallUntil int64 // master cycles
	pendingNB  int   // posted stores in flight (write buffer)

	cache *tagArray
	sendQ []*Package
	// pkgFree recycles the master's shadow packages; System.route frees one
	// after Master.deliver returns. The cluster pools' aliasing hazard (a
	// restored pendingSend pointing at a recycled package, Cluster.Rollback)
	// does not exist here: the master keeps no pointer to a sent package and
	// never rolls back.
	pkgFree pkgPool

	bcastMask uint32
	bcastRegs [isa.NumRegs]int32

	pendingSpawnPC int // instruction index of the spawn being drained

	// Observability (the master runs on the scheduler goroutine, so it
	// updates shared collectors and the event log directly).
	prof         *stats.ProfShard // the profile's last shard; nil when off
	memWaitStart engine.Time
	blockPC      int32
}

func newMaster(sys *System) *Master {
	cfg := sys.Cfg
	m := &Master{
		sys:   sys,
		cache: newTagArray(cfg.MasterCacheLines, 2, cfg.MasterCacheLineSize),
	}
	m.ctx = funcmodel.Context{ID: -1, IsMaster: true, PC: sys.Prog.Entry}
	sp := int32(cfg.MemBytes &^ 7)
	m.ctx.Reg[isa.RegSP] = sp
	m.ctx.Reg[isa.RegFP] = sp
	return m
}

// Tick issues up to IssueWidth instructions per master cycle.
func (mt *Master) Tick(cycle int64, now engine.Time) bool {
	switch mt.state {
	case masterHalted, masterWaitJoin, masterWaitMem:
		return false
	case masterWaitFence:
		if mt.pendingNB > 0 {
			return false
		}
		mt.state = masterRunning
	case masterWaitSpawnDrain:
		if mt.pendingNB > 0 {
			return false
		}
		mt.state = masterRunning
		mt.beginSpawn(now)
		return false
	case masterStalled:
		if cycle < mt.stallUntil {
			mt.sleep(now) // woken early: another event came due first
			return false
		}
		mt.state = masterRunning
	}
	// Periodic and requested checkpointing stop at exactly the points a sys
	// checkpoint trap may: serial mode with the write buffer drained, so the
	// machine is architecturally quiescent and Capture needs no in-flight
	// state. An asynchronous RequestCheckpoint (signal handler, daemon
	// preemption) is honored at the first such point regardless of cadence.
	if sys := mt.sys; mt.pendingNB == 0 {
		if sys.ckptReq.Load() {
			sys.ckptReq.Store(false)
			sys.checkpointStop()
			return false
		}
		if sys.ckptEvery > 0 && sys.cycleOffset+sys.clusterClock.Cycle(now) >= sys.nextCkpt {
			sys.nextCkpt += sys.ckptEvery
			sys.checkpointStop()
			return false
		}
	}
	for slot := 0; slot < mt.sys.Cfg.MasterIssueWidth; slot++ {
		cont := mt.issue(cycle, now)
		if !cont || mt.state != masterRunning {
			break
		}
	}
	if mt.state == masterStalled {
		mt.sleep(now)
		return false
	}
	return mt.state == masterRunning
}

// sleep arms the master's wake for the edge its latency stall ends on,
// clamped to the next pending event (MacroActor.SleepUntil), instead of
// re-arming every edge only to compare cycle < stallUntil. A stalled master
// schedules nothing, so the clamped wake keeps every event's order and the
// simulated result is the per-edge poll's; only Sched.Executed is lower.
func (mt *Master) sleep(now engine.Time) {
	mt.sys.masterMA.SleepUntil(now, mt.sys.masterClock.EdgeAt(mt.stallUntil))
}

// issue dispatches one instruction on its lowered issue record (the same
// stream the TCUs use); it returns whether the issue group may continue
// this cycle.
func (mt *Master) issue(cycle int64, now engine.Time) bool {
	m := mt.sys.Machine
	pc := mt.ctx.PC
	if pc < 0 || pc >= len(mt.sys.issue) {
		mt.sys.fail(fmt.Errorf("cycle: master PC %d outside program", pc))
		return false
	}
	r := &mt.sys.issue[pc]
	op := isa.Op(r.Op)
	// in is only dereferenced by observers, errors and the memory system,
	// which packages carry it to.
	in := &mt.sys.Prog.Text[pc]
	mt.ctx.PC++
	if mt.sys.traceFn != nil {
		mt.sys.traceFn(-1, pc, *in, now)
	}
	if mt.sys.evlog != nil {
		mt.sys.evlog.Emit(trace.Event{TS: now, Dur: mt.sys.masterClock.Period(),
			Kind: trace.EvInstr, Op: op, Ctx: -1, PC: int32(pc), Arg: int64(in.Line)})
	}
	if mt.prof != nil {
		mt.prof.Issue(pc)
	}
	count := func() { mt.sys.Stats.CountInstr(op, -1, true) }
	fail := func(err error) bool {
		mt.sys.fail(&funcmodel.RuntimeError{PC: pc, Line: in.Line, In: *in, Err: err})
		return false
	}

	switch r.Class {
	case funcvm.ClsSpawn:
		count()
		// Order memory relative to the spawn boundary: drain the write
		// buffer before broadcasting.
		mt.ctx.PC = pc // re-fetch position is irrelevant; keep for errors
		mt.pendingSpawnPC = pc
		if mt.pendingNB > 0 {
			mt.state = masterWaitSpawnDrain
			return false
		}
		mt.beginSpawn(now)
		return false

	case funcvm.ClsJoin, funcvm.ClsChkid:
		return fail(fmt.Errorf("%s executed in serial mode", op))

	case funcvm.ClsBcast:
		count()
		mt.bcastMask |= 1 << uint(r.Rd)
		mt.bcastRegs[r.Rd&31] = mt.ctx.Reg[r.Rd&31]
		return true

	case funcvm.ClsPs:
		count()
		old, err := m.Ps(r.G(), mt.ctx.Reg[r.Rd&31])
		if err != nil {
			return fail(err)
		}
		mt.ctx.SetReg(r.Rd, old)
		return true

	case funcvm.ClsGrr:
		count()
		mt.ctx.SetReg(r.Rd, m.G[r.G()])
		return true

	case funcvm.ClsGrw:
		count()
		m.G[r.G()] = mt.ctx.Reg[r.Rd&31]
		return true

	case funcvm.ClsFence:
		count()
		if mt.pendingNB > 0 {
			mt.state = masterWaitFence
			return false
		}
		return true

	case funcvm.ClsSys:
		// A checkpoint trap needs a quiescent machine: drain the write
		// buffer first, then retry the trap.
		if r.Imm == isa.SysCheckpoint && mt.pendingNB > 0 {
			mt.ctx.PC = pc
			mt.state = masterWaitFence
			return false
		}
		count()
		halt, err := m.DoSys(&mt.ctx, r.Imm)
		if err != nil {
			return fail(err)
		}
		if halt {
			mt.state = masterHalted
			mt.sys.halt()
			return false
		}
		if m.CheckpointRequested {
			mt.sys.checkpointStop()
			return false
		}
		return true

	case funcvm.ClsPsm:
		addr := m.EffAddr(&mt.ctx, r.Rs, r.Imm)
		old, err := m.Psm(addr, mt.ctx.Reg[r.Rd&31])
		if err != nil {
			return fail(err)
		}
		if !mt.send(PkgPsm, in, addr, old, now) {
			// Could not inject: undo and retry next cycle.
			if _, uerr := m.Psm(addr, -mt.ctx.Reg[r.Rd&31]); uerr != nil {
				return fail(uerr)
			}
			mt.ctx.PC = pc
			return false
		}
		count()
		mt.sys.Stats.PsmOps++
		mt.blockWaitMem(now, pc)
		return false

	case funcvm.ClsPref:
		count()
		return true // the master relies on its cache; prefetch is a no-op

	case funcvm.ClsLoad, funcvm.ClsLoadRO: // lw, lb, lbu, lwro
		addr := m.EffAddr(&mt.ctx, r.Rs, r.Imm)
		v, err := m.LoadValue(op, addr)
		if err != nil {
			return fail(err)
		}
		if mt.cache.Lookup(addr, cycle) {
			mt.sys.Stats.MasterCacheHits++
			mt.ctx.SetReg(r.Rd, v)
			mt.stall(cycle + mt.sys.Cfg.MasterCacheLatency)
			count()
			return false
		}
		if !mt.send(PkgLoad, in, addr, v, now) {
			mt.ctx.PC = pc
			return false
		}
		count()
		mt.sys.Stats.MasterCacheMisses++
		mt.blockWaitMem(now, pc)
		return false

	case funcvm.ClsStore, funcvm.ClsStoreNB: // sw, sb, sw.nb: posted through the write buffer
		addr := m.EffAddr(&mt.ctx, r.Rs, r.Imm)
		data := mt.ctx.Reg[r.Rd&31]
		if !mt.send(PkgStoreNB, in, addr, data, now) {
			mt.ctx.PC = pc
			return false
		}
		if err := m.StoreValue(op, addr, data); err != nil {
			return fail(err)
		}
		count()
		mt.pendingNB++
		return true

	case funcvm.ClsMDU, funcvm.ClsFPU:
		count()
		if err := m.ExecCompute(&mt.ctx, op, r.Rd, r.Rs, r.Rt, r.Imm); err != nil {
			return fail(err)
		}
		mt.stall(cycle + int64(r.Lat))
		return false

	case funcvm.ClsBranch:
		count()
		taken, target, err := m.EvalBranch(&mt.ctx, op, r.Rs, r.Rt, int(r.Target))
		if err != nil {
			return fail(err)
		}
		if taken {
			if target < 0 || target >= len(mt.sys.issue) {
				return fail(fmt.Errorf("branch target %d outside program", target))
			}
			mt.ctx.PC = target
		}
		return false // branches end the issue group

	default: // ClsCompute
		count()
		if err := m.ExecCompute(&mt.ctx, op, r.Rd, r.Rs, r.Rt, r.Imm); err != nil {
			return fail(err)
		}
		return true
	}
}

func (mt *Master) beginSpawn(now engine.Time) {
	r := &mt.sys.issue[mt.pendingSpawnPC]
	region := mt.sys.Prog.RegionOf(mt.pendingSpawnPC + 1)
	if region == nil || region.Spawn != mt.pendingSpawnPC {
		mt.sys.fail(fmt.Errorf("cycle: spawn at %d has no linked region", mt.pendingSpawnPC))
		return
	}
	low, high := mt.ctx.Reg[r.Rs&31], mt.ctx.Reg[r.Rt&31]
	mt.cache.InvalidateAll() // TCU writes become visible after the join
	mt.state = masterWaitJoin
	mt.sys.spawn.start(region, low, high, mt.bcastMask, &mt.bcastRegs, now)
	mt.bcastMask = 0
}

// resumeAfterJoin is called by the spawn unit when all virtual threads have
// completed.
func (mt *Master) resumeAfterJoin(pc int, now engine.Time) {
	mt.ctx.PC = pc
	mt.state = masterRunning
	mt.cache.InvalidateAll()
	mt.sys.wakeMaster(now)
}

func (mt *Master) stall(until int64) {
	mt.state = masterStalled
	mt.stallUntil = until
}

// blockWaitMem parks the master waiting for a memory response, remembering
// the blocking instruction for stall attribution.
func (mt *Master) blockWaitMem(now engine.Time, pc int) {
	mt.state = masterWaitMem
	mt.memWaitStart = now
	mt.blockPC = int32(pc)
}

// memUnblocked attributes the just-finished master memory wait.
func (mt *Master) memUnblocked(now engine.Time) {
	wait := now - mt.memWaitStart
	if wait <= 0 {
		return
	}
	cycles := uint64(wait / livePeriod(mt.sys.masterClock, mt.sys.Cfg.MasterPeriod))
	mt.sys.Stats.MasterMemWaitCycles += cycles
	if mt.prof != nil {
		mt.prof.Stall(int(mt.blockPC), cycles)
	}
	if mt.sys.evlog != nil {
		mt.sys.evlog.Emit(trace.Event{TS: mt.memWaitStart, Dur: wait,
			Kind: trace.EvMemWait, Op: isa.Op(mt.sys.issue[mt.blockPC].Op), Ctx: -1, PC: mt.blockPC})
	}
}

// send enqueues a shadow package on the master's dedicated ICN path, or
// reports backpressure. The package is taken from the freelist only once the
// port has accepted the send, so a refused attempt allocates nothing.
func (mt *Master) send(kind PkgKind, in *isa.Instr, addr uint32, data int32, issued engine.Time) bool {
	sys := mt.sys
	now := sys.Sched.Now()
	port := len(sys.clusters) // the master's own injection port
	if sys.Cfg.ICNAsync {
		if sys.asyncPortFree[port] > now+8*sys.Cfg.ICNAsyncGapTicks {
			sys.Stats.MasterSendStalls++
			return false
		}
	} else if len(mt.sendQ) >= 8*sys.Cfg.ICNInjectPerCyc {
		sys.Stats.MasterSendStalls++
		return false
	}
	p := mt.pkgFree.alloc()
	*p = Package{Kind: kind, In: in, Cluster: -1, Addr: addr, Data: data,
		Module: sys.moduleOf(addr), Issued: issued, Shadow: true}
	if sys.Cfg.ICNAsync {
		sys.asyncSend(p, port, now)
		return true
	}
	mt.sendQ = append(mt.sendQ, p)
	sys.icn.ports.Set(port)
	sys.wakeICN(now)
	return true
}

// deliver commits an expiring package at the master.
func (mt *Master) deliver(p *Package, now engine.Time) {
	if p.Err != nil {
		mt.sys.fail(&funcmodel.RuntimeError{Line: p.In.Line, In: *p.In, Err: p.Err})
		return
	}
	switch p.Kind {
	case PkgLoad:
		mt.ctx.SetReg(p.In.Rd, p.Data)
		mt.cache.Fill(p.Addr, mt.sys.masterClock.Cycle(now))
		mt.sys.Stats.LoadLatency.Observe(uint64(now - p.Issued))
		mt.memUnblocked(now)
		mt.state = masterRunning
		mt.sys.wakeMaster(now)
	case PkgPsm:
		mt.ctx.SetReg(p.In.Rd, p.Data)
		mt.memUnblocked(now)
		mt.state = masterRunning
		mt.sys.wakeMaster(now)
	case PkgStore, PkgStoreNB:
		mt.pendingNB--
		if mt.pendingNB == 0 &&
			(mt.state == masterWaitFence || mt.state == masterWaitSpawnDrain) {
			mt.sys.wakeMaster(now)
		}
	}
}
