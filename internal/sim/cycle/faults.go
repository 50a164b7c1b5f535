package cycle

import (
	"fmt"

	"xmtgo/internal/sim/engine"
	"xmtgo/internal/sim/fault"
	"xmtgo/internal/sim/trace"
)

// This file wires the fault-injection plan (internal/sim/fault) into the
// cycle-accurate machine and implements graceful degradation: a permanently
// failed TCU is decommissioned at a safe point and its in-flight virtual
// thread re-dispatched to a surviving TCU via the spawn unit
// (docs/ROBUSTNESS.md).
//
// Determinism contract: every fault decision and mutation happens in a
// serial context — scheduled fault events (which never overlap the parallel
// cluster compute phase), the ICN/cache macro-actors, and outbox commits —
// so fault-injected runs remain bit-identical for any host worker count,
// the same contract every other shared effect follows.

// prioFault fires fault events just before same-edge clock notifications,
// so a fault scheduled for cycle C is architecturally visible to cycle C.
const prioFault = engine.PrioClock - 1

// injector owns one run's materialized fault schedule.
type injector struct {
	sys  *System
	plan []fault.Fault

	// icnArmed queues fired ICN faults; each is consumed by (and applied
	// to) the next package injected into the interconnect.
	icnArmed []fault.Fault
}

func newInjector(s *System) (*injector, error) {
	cfg := s.Cfg
	plan, err := fault.Plan(cfg.FaultSeed, cfg.FaultPlan, fault.Shape{
		Clusters:       cfg.Clusters,
		TCUsPerCluster: cfg.TCUsPerCluster,
		CacheModules:   cfg.CacheModules,
		MemBytes:       cfg.MemBytes,
	})
	if err != nil {
		return nil, err
	}
	return &injector{sys: s, plan: plan}, nil
}

// schedule arms every planned fault at its cluster-cycle edge. Plan cycles
// are absolute (including any resume offset): faults at or before the
// offset already fired in the checkpointed prefix of the run and are
// skipped, so a resumed run continues the same plan it started with.
func (inj *injector) schedule() {
	off := inj.sys.cycleOffset
	for i := range inj.plan {
		f := inj.plan[i]
		if f.Cycle <= off {
			continue
		}
		at := inj.sys.clusterClock.EdgeAt(f.Cycle - off)
		inj.sys.Sched.ScheduleFunc(at, prioFault, func(t engine.Time) {
			inj.apply(f, t)
		})
	}
}

// apply injects one fault. Runs on the scheduler goroutine between cluster
// ticks, so it may touch any state directly.
func (inj *injector) apply(f fault.Fault, now engine.Time) {
	s := inj.sys
	if s.Sched.Stopped() || s.err != nil || s.halted {
		return
	}
	switch f.Kind {
	case fault.MemFlip:
		if int64(f.Addr) < int64(len(s.Machine.Mem)) {
			s.Machine.Mem[f.Addr] ^= 1 << (f.Bit & 7)
			s.Machine.MarkMemDirty(f.Addr, f.Addr+1)
		}
		s.Stats.MemFaults++
		inj.emit(f, -1, now)
	case fault.RegFlip:
		t := s.tcuByID(f.TCU)
		if t.alive {
			t.ctx.Reg[f.Reg&31] ^= 1 << (f.Bit & 31)
		}
		s.Stats.RegFaults++
		inj.emit(f, int32(f.TCU), now)
	case fault.ICNDelay:
		s.Stats.ICNDelayFaults++
		inj.icnArmed = append(inj.icnArmed, f)
		inj.emit(f, -1, now)
	case fault.ICNDup:
		s.Stats.ICNDupFaults++
		inj.icnArmed = append(inj.icnArmed, f)
		inj.emit(f, -1, now)
	case fault.ICNDrop:
		s.Stats.ICNDropFaults++
		inj.icnArmed = append(inj.icnArmed, f)
		inj.emit(f, -1, now)
	case fault.CacheStall:
		cm := s.modules[f.Module]
		until := now + f.Mag*s.Cfg.CachePeriod
		if until > cm.stalledUntil {
			cm.stalledUntil = until
		}
		s.Stats.CacheStallFaults++
		s.wakeCaches(now)
		inj.emit(f, -1, now)
	case fault.TCUFail:
		s.Stats.TCUFailFaults++
		inj.emit(f, int32(f.TCU), now)
		s.failTCU(s.tcuByID(f.TCU), now)
	case fault.ClusterFail:
		s.Stats.ClusterFailFaults++
		inj.emit(f, -1, now)
		for _, t := range s.clusters[f.Cluster].tcus {
			s.failTCU(t, now)
		}
	}
}

// syncICNFault applies the next armed ICN fault to a package injected by
// the clocked interconnect, returning the adjusted arrival time and whether
// a ghost duplicate should ride along. ICN.Tick is a serial macro-actor, so
// consuming the queue here is deterministic.
func (inj *injector) syncICNFault(ready engine.Time, latency engine.Time) (engine.Time, bool) {
	f := inj.icnArmed[0]
	inj.icnArmed = inj.icnArmed[1:]
	switch f.Kind {
	case fault.ICNDelay:
		return ready + f.Mag*inj.sys.Cfg.ICNPeriod, false
	case fault.ICNDrop:
		// Lossless retransmission: the package re-traverses after Mag×
		// the base latency instead of disappearing.
		return ready + f.Mag*latency, false
	case fault.ICNDup:
		return ready, true
	}
	return ready, false
}

// asyncICNFault is the asynchronous-interconnect counterpart: it shifts the
// handshake arrival time. Duplication has no timing effect in the
// handshake network (the ghost would be dropped at the port), so ICNDup is
// counted but a no-op here; docs/ROBUSTNESS.md records the asymmetry.
func (inj *injector) asyncICNFault(arrive engine.Time) engine.Time {
	f := inj.icnArmed[0]
	inj.icnArmed = inj.icnArmed[1:]
	cfg := inj.sys.Cfg
	switch f.Kind {
	case fault.ICNDelay:
		return arrive + f.Mag*cfg.ICNAsyncHopTicks
	case fault.ICNDrop:
		return arrive + f.Mag*int64(inj.sys.icn.hopsPerTraversal)*cfg.ICNAsyncHopTicks
	}
	return arrive
}

func (inj *injector) emit(f fault.Fault, ctx int32, now engine.Time) {
	if inj.sys.evlog != nil {
		inj.sys.evlog.Emit(trace.Event{TS: now, Kind: trace.EvFault, Ctx: ctx, Arg: int64(f.Kind)})
	}
}

// tcuByID returns the TCU with the given global index.
func (s *System) tcuByID(id int) *TCU {
	return s.clusters[id/s.Cfg.TCUsPerCluster].tcus[id%s.Cfg.TCUsPerCluster]
}

// failTCU injects a permanent failure into one TCU. Runs on the scheduler
// goroutine. An idle or already-done TCU decommissions immediately; a TCU
// mid-thread is marked failing and decommissions itself at its next safe
// point in the compute phase (no in-flight blocking request, posted stores
// drained), routing the decommission through the outbox so the spawn-unit
// bookkeeping stays in deterministic commit order.
func (s *System) failTCU(t *TCU, now engine.Time) {
	if !t.alive || t.failing {
		return
	}
	switch t.state {
	case tcuIdle:
		// Not participating in a spawn: nothing to hand off.
		s.decommissionTCU(t, false, false, now)
	case tcuDone:
		// Participating but finished: no live thread to orphan. (Between
		// scheduler events a done TCU's completion is always already
		// counted — finish and its commit happen inside one event.)
		s.decommissionTCU(t, true, false, now)
	default:
		t.failing = true
		t.unpark() // its next tick decommissions instead of re-issuing
		s.wakeClusters(now)
	}
}

// decommissionTCU permanently removes a TCU from the machine: graceful
// degradation instead of killing the run. participating says the TCU was
// part of the active spawn; hasThread says its context holds a live virtual
// thread that must be re-dispatched. Serial contexts only (fault events,
// outbox commit, deliveries).
func (s *System) decommissionTCU(t *TCU, participating, hasThread bool, now engine.Time) {
	if !t.alive {
		return
	}
	t.alive = false
	t.failing = false
	t.setState(tcuDead)
	t.pendingSend = nil
	s.aliveTCUs--
	s.Stats.TCUsDecommissioned++
	if s.evlog != nil {
		s.evlog.Emit(trace.Event{TS: now, Kind: trace.EvDecommission, Ctx: int32(t.id)})
	}
	if s.aliveTCUs == 0 {
		s.fail(fmt.Errorf("cycle: all %d TCUs decommissioned; the machine cannot make progress", s.Cfg.TCUs()))
		return
	}
	if participating {
		s.spawn.decommission(t, hasThread, now)
	}
}

// armWatchdog schedules the no-retire progress watchdog: if a full
// WatchdogCycles window passes without a single retired instruction while
// the program has not halted, the run fails with a diagnostic instead of
// spinning forever (the replacement for relying solely on a drained event
// list to detect wedged simulations). The check is read-only until it
// trips, so enabling it never perturbs simulation results.
func (s *System) armWatchdog(lastInstrs uint64) {
	at := s.Sched.Now() + s.Cfg.WatchdogCycles*livePeriod(s.clusterClock, s.Cfg.ClusterPeriod)
	s.Sched.ScheduleFunc(at, engine.PrioStop-2, func(t engine.Time) {
		if s.Sched.Stopped() {
			return
		}
		cur := s.Stats.TotalInstrs()
		if cur == lastInstrs {
			s.fail(fmt.Errorf("cycle: watchdog: no instruction retired in %d cluster cycles (cycle %d, %d instructions total): simulation is wedged",
				s.Cfg.WatchdogCycles, s.cycleOffset+s.clusterClock.Cycle(t), cur))
			return
		}
		s.armWatchdog(cur)
	})
}
