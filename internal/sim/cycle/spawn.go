package cycle

import (
	"xmtgo/internal/asm"
	"xmtgo/internal/isa"
	"xmtgo/internal/sim/engine"
	"xmtgo/internal/sim/funcmodel"
	"xmtgo/internal/sim/trace"
)

// SpawnUnit models the spawn-join hardware: broadcasting the spawn-region
// instructions (and the bcast-ed master registers) to every TCU, allocating
// virtual-thread IDs through the dedicated global register, detecting that
// all TCUs are blocked at chkid — which means all virtual threads have
// completed — and returning control to the Master TCU (paper §II, §IV-D).
//
// The unit also anchors graceful degradation (docs/ROBUSTNESS.md): when a
// participating TCU is decommissioned by an injected permanent fault, its
// in-flight virtual thread is re-dispatched to a surviving TCU — immediately
// if one is already done, otherwise queued until the next TCU finishes — and
// the join completes over the survivors instead of hanging on a count that
// can never be reached.
type SpawnUnit struct {
	sys *System

	active bool
	region *asm.SpawnRegion
	low    int32
	high   int32
	done   int
	// total is the number of participating TCUs: -1 while the broadcast is
	// still in flight (participants are not enrolled yet), then the count of
	// TCUs alive at broadcast, decremented as participants are
	// decommissioned.
	total int

	// orphans queues virtual threads whose TCU was decommissioned before a
	// finished survivor could adopt them. FIFO, so re-dispatch order is a
	// pure function of the execution.
	orphans []orphan

	startedAt engine.Time // when the master issued the spawn (for EvSpawn)
}

// orphan is a virtual thread stranded by a TCU decommission, waiting for a
// surviving TCU to adopt it.
type orphan struct {
	ctx funcmodel.Context
	at  engine.Time // when the thread was orphaned (re-dispatch latency)
}

func newSpawnUnit(sys *System) *SpawnUnit { return &SpawnUnit{sys: sys} }

// start is called by the master executing a spawn instruction. Broadcast
// and TCU startup take SpawnOverhead master cycles.
func (s *SpawnUnit) start(region *asm.SpawnRegion, low, high int32, mask uint32, bcast *[isa.NumRegs]int32, now engine.Time) {
	s.sys.Stats.SpawnCount++
	if high >= low {
		s.sys.Stats.VirtualThreads += uint64(high - low + 1)
	}
	s.active = true
	s.region = region
	s.low, s.high = low, high
	s.done = 0
	s.total = -1 // fixed at broadcast, over the TCUs alive then
	s.orphans = s.orphans[:0]
	s.startedAt = now
	s.sys.Stats.SpawnOverheadCycles += uint64(s.sys.Cfg.SpawnOverhead)

	// The spawn counter global register is initialized to low; TCUs grab
	// IDs with ps on it.
	s.sys.Machine.G[isa.GRegSpawn] = low

	overhead := s.sys.Cfg.SpawnOverhead * s.sys.Cfg.MasterPeriod
	maskCopy := mask
	var bcastCopy [isa.NumRegs]int32
	if bcast != nil {
		bcastCopy = *bcast
	}
	s.sys.Sched.ScheduleFunc(now+overhead, engine.PrioNegotiate, func(t engine.Time) {
		s.total = s.sys.aliveTCUs
		if s.sys.race != nil {
			// The broadcast orders the serial prefix before every virtual
			// thread: open a fresh xmtsan epoch.
			s.sys.race.EpochBegin()
		}
		for _, c := range s.sys.clusters {
			c.resetForSpawn(region, maskCopy, &bcastCopy)
		}
		s.sys.wakeClusters(t)
	})
}

// tcuDone is called when a TCU blocks at chkid with an out-of-range ID (via
// the outbox, or directly from a store drain on the scheduler goroutine).
// If orphaned virtual threads are pending, the freshly finished TCU adopts
// one instead of counting toward the join.
func (s *SpawnUnit) tcuDone(t *TCU, now engine.Time) {
	if !s.active {
		return
	}
	if !t.alive || t.state != tcuDone || t.doneCounted {
		// Stale record: the TCU was decommissioned or re-dispatched between
		// emitting its done and this commit.
		return
	}
	if len(s.orphans) > 0 {
		o := s.orphans[0]
		s.orphans = s.orphans[1:]
		s.adopt(t, o, now)
		return
	}
	s.done++
	t.doneCounted = true
	s.maybeComplete(now)
}

// decommission removes a participating TCU from the active spawn. If its
// virtual thread was live it is re-dispatched: immediately to a finished
// survivor when one exists, else queued for the next TCU to finish. Serial
// contexts only.
func (s *SpawnUnit) decommission(t *TCU, hasThread bool, now engine.Time) {
	if !s.active || s.total < 0 {
		return
	}
	s.total--
	if t.doneCounted {
		t.doneCounted = false
		s.done--
	} else if hasThread {
		o := orphan{ctx: t.ctx, at: now}
		if a := s.finishedSurvivor(); a != nil {
			s.adopt(a, o, now)
		} else {
			s.orphans = append(s.orphans, o)
		}
	}
	s.maybeComplete(now)
}

// finishedSurvivor returns the lowest-numbered TCU that is done with its
// own work and free to adopt an orphan. Only counted-done TCUs qualify: a
// TCU whose done record is still in an uncommitted outbox will pick up the
// orphan when that record replays.
func (s *SpawnUnit) finishedSurvivor() *TCU {
	for _, c := range s.sys.clusters {
		for _, t := range c.tcus {
			if t.alive && t.state == tcuDone && t.doneCounted {
				return t
			}
		}
	}
	return nil
}

// adopt re-dispatches an orphaned virtual thread onto a surviving TCU.
func (s *SpawnUnit) adopt(a *TCU, o orphan, now engine.Time) {
	if a.doneCounted {
		a.doneCounted = false
		s.done--
	}
	a.ctx = o.ctx
	a.ctx.ID = a.id
	a.setState(tcuRunning)
	a.unpark()
	a.stallUntil = 0
	a.pendingNB = 0
	a.waitingPbuf = false
	a.pendingSend = nil
	a.pbuf.invalidateAll()
	s.sys.Stats.Redispatches++
	s.sys.Stats.RedispatchLatency.Observe(uint64(now - o.at))
	if s.sys.evlog != nil {
		s.sys.evlog.Emit(trace.Event{TS: now, Kind: trace.EvRedispatch,
			Ctx: int32(a.id), Arg: int64(now - o.at)})
	}
	s.sys.wakeClusters(now)
}

// maybeComplete finishes the join once every participant is done and no
// orphaned thread is waiting for a TCU.
func (s *SpawnUnit) maybeComplete(now engine.Time) {
	if !s.active || s.total < 0 || s.done < s.total || len(s.orphans) > 0 {
		return
	}
	s.active = false
	region := s.region
	started := s.startedAt
	vthreads := int64(0)
	if s.high >= s.low {
		vthreads = int64(s.high - s.low + 1)
	}
	s.sys.Stats.JoinOverheadCycles += uint64(s.sys.Cfg.JoinOverhead)
	overhead := s.sys.Cfg.JoinOverhead * s.sys.Cfg.MasterPeriod
	s.sys.Sched.ScheduleFunc(now+overhead, engine.PrioNegotiate, func(t engine.Time) {
		for _, c := range s.sys.clusters {
			c.quiesce()
		}
		if s.sys.race != nil {
			// The join barrier: condemn pending pairs whose writer never
			// released, then clear the shadow state.
			s.sys.race.EpochEnd()
			s.sys.drainRaces(t)
		}
		if s.sys.evlog != nil {
			s.sys.evlog.Emit(trace.Event{TS: started, Dur: t - started,
				Kind: trace.EvSpawn, Ctx: -1, PC: int32(region.Spawn), Arg: vthreads})
		}
		s.sys.master.resumeAfterJoin(region.Join+1, t)
	})
}
