package cycle

import (
	"xmtgo/internal/isa"
	"xmtgo/internal/sim/engine"
	"xmtgo/internal/sim/funcmodel"
)

// PSUnit models the global register file and its prefix-sum unit at the
// Master TCU (Fig. 1). The combining hardware answers simultaneous ps
// requests with constant low latency, but its throughput is finite: at
// most PSPerCycle requests retire per cluster cycle (the combining tree's
// width), so massive grab storms — e.g. 1024 TCUs fetching virtual-thread
// ids at spawn onset — are paced. Requests apply atomically in
// deterministic arrival order; each response returns one PS-latency after
// its apply slot.
type PSUnit struct {
	sys *System

	windowCycle int64 // cluster cycle currently being filled
	used        int   // requests already retired in windowCycle
}

func newPSUnit(sys *System) *PSUnit { return &PSUnit{sys: sys} }

// request is called by a TCU at issue; the TCU blocks until psDelivered.
func (u *PSUnit) request(t *TCU, in *isa.Instr, now engine.Time) {
	u.sys.Stats.PsOps++
	lat := u.sys.Cfg.PSLatency * u.sys.Cfg.ClusterPeriod
	reqAt := now
	applyAt := u.slotFor(now + lat)
	u.sys.Sched.ScheduleFunc(applyAt, engine.PrioNegotiate, func(applyTime engine.Time) {
		old, err := u.apply(&t.ctx, in)
		if err != nil {
			u.sys.fail(&funcmodel.RuntimeError{Line: in.Line, In: *in, Err: err})
			return
		}
		u.sys.Sched.ScheduleFunc(applyTime+lat, engine.PrioTransfer, func(doneTime engine.Time) {
			// Round trip = request at the unit to response delivered; the
			// pacing window makes this grow under grab storms, which is
			// exactly what the histogram is there to show.
			u.sys.Stats.PSLatency.Observe(uint64(doneTime - reqAt))
			t.psDelivered(in, old, doneTime)
		})
	})
}

// slotFor paces requests at PSPerCycle per cluster cycle, returning the
// apply time for a request arriving at the unit at time `at`. A gated
// cluster domain has no edges to pace on — a request is made while gated
// only by a commit on an edge that was already pending at the gate — so
// such a request applies at its arrival and takes no slot
// (docs/SIMULATOR.md §Activity plug-ins).
func (u *PSUnit) slotFor(at engine.Time) engine.Time {
	clk := u.sys.clusterClock
	if !clk.Enabled() {
		return at
	}
	c := clk.Cycle(at)
	if c > u.windowCycle {
		u.windowCycle = c
		u.used = 0
	}
	for u.used >= u.sys.Cfg.PSPerCycle {
		u.windowCycle++
		u.used = 0
	}
	u.used++
	slot := clk.EdgeAt(u.windowCycle)
	if slot < at {
		return at
	}
	return slot
}

// apply performs the global-register operation atomically.
func (u *PSUnit) apply(ctx *funcmodel.Context, in *isa.Instr) (int32, error) {
	m := u.sys.Machine
	switch in.Op {
	case isa.OpPs:
		return m.Ps(in.G, ctx.Reg[in.Rd])
	case isa.OpGrr:
		return m.G[in.G], nil
	case isa.OpGrw:
		m.G[in.G] = ctx.Reg[in.Rd]
		return 0, nil
	}
	return 0, nil
}
