package engine

// Cycler is a cycle-accurate component that can be driven one clock cycle
// at a time. It is the shared interface between the DE macro-actor and the
// discrete-time comparison loop (paper Fig. 5): Tick performs the
// component's work for the given domain-local cycle and reports whether the
// component still has work pending (so an idle macro-actor can stop
// scheduling itself). Busy means "re-arm me at the next edge". A component
// whose next work lies further out may instead arm its own later wake —
// MacroActor.WakeAt, or SleepUntil to skip edges without reordering
// anything — and report idle.
type Cycler interface {
	Tick(cycle int64, now Time) (busy bool)
}

// CyclerFunc adapts a function to Cycler.
type CyclerFunc func(cycle int64, now Time) bool

// Tick calls f.
func (f CyclerFunc) Tick(cycle int64, now Time) bool { return f(cycle, now) }

// MacroActor groups closely related components into one large actor and
// iterates through them at every simulated clock cycle, combining what
// would otherwise be one event per component into a single event (paper
// §III-D; the interconnection network of XMTSim is implemented this way).
// This style wins once the average number of per-cycle events passes a
// threshold — the paper measured ≈800 empty events/cycle — which
// BenchmarkMacroActorThreshold reproduces.
type MacroActor struct {
	Name  string
	sched *Scheduler
	clock *Clock
	comps []Cycler

	scheduled bool
	pending   *Event
	armed     edgeMemo
}

// NewMacroActor creates a macro-actor driven by clock on sched.
func NewMacroActor(name string, sched *Scheduler, clock *Clock, comps ...Cycler) *MacroActor {
	return &MacroActor{Name: name, sched: sched, clock: clock, comps: comps, armed: edgeMemo{edge: -1}}
}

// Add appends a component.
func (m *MacroActor) Add(c Cycler) { m.comps = append(m.comps, c) }

// Len returns the number of grouped components.
func (m *MacroActor) Len() int { return len(m.comps) }

// Wake ensures the macro-actor is scheduled for the next clock edge. Idle
// macro-actors deschedule themselves; components call Wake (typically from
// Input) when new work arrives. A pending WakeAt further out is pulled in.
func (m *MacroActor) Wake(now Time) {
	edge := m.armed.after(m.clock, now)
	if edge == MaxTime {
		return // domain gated off; the DVFS controller re-wakes on Enable
	}
	m.wakeEdge(edge)
}

// WakeAt schedules the next notification at the first clock edge at or
// after `at` instead of the very next edge — the idle-skip for components
// whose queued work all lies in the future (e.g. in-flight ICN packages):
// the skipped edges cost no scheduler events at all, and the component
// ticks again exactly when the earliest item can make progress. A later
// Wake for an earlier edge supersedes it. The wake keeps the sequence number
// it takes now, so on its edge it runs before the other PrioClock events
// scheduled after it; SleepUntil is the variant that cannot reorder them.
func (m *MacroActor) WakeAt(now, at Time) {
	if at <= now {
		m.Wake(now)
		return
	}
	edge := m.armed.after(m.clock, at-1) // first edge at or after `at`
	if edge == MaxTime {
		return
	}
	m.wakeEdge(edge)
}

// SleepUntil is WakeAt(now, min(at, NextTime())): wake at the first edge at
// or after `at`, but never past the first edge at or after the earliest
// other pending event. A component that would otherwise report busy only to
// compare its cycle with a deadline (the master in a latency stall) calls it
// from Tick and reports idle; on waking early it checks and sleeps again.
//
// The sleep skips events but reorders none. The skipped edges are exactly the
// edges at which no other event can run: every one lies before the earliest
// pending event, and the sleeper schedules nothing while it sleeps, so no
// event is created between the sleep and the last skipped edge. The wake
// therefore takes its sequence number among the same events as the per-edge
// poll it replaces, which the last skipped edge would have scheduled, and
// keeps that poll's place in (time, priority, sequence) relative to every
// other event. Anything that could move the sleeper's clock or end the run —
// a package delivery, a plug-in sample that calls SetPeriod or Disable, a
// ScheduleStop budget — is a pending event, and so bounds the sleep. Only
// Executed differs: by the polls skipped. The argument needs every event to
// be scheduled by an event (or before the run starts): a caller that
// schedules from outside between RunUntil slices is not covered. A sleep
// that ends on the next edge does not look at the event list.
func (m *MacroActor) SleepUntil(now, at Time) {
	edge := m.armed.next(m.clock, now) // no wake comes before the next edge
	if edge == MaxTime {
		return // domain gated off; the DVFS controller re-wakes on Enable
	}
	if at > edge {
		if next := m.sched.NextTime(); next < at {
			at = next
		}
		if at > edge {
			edge = m.armed.after(m.clock, at-1) // first edge at or after `at`
		}
	}
	m.wakeEdge(edge)
}

// wakeEdge schedules (or tightens) the pending notification to the given
// edge; an already-pending earlier notification stands.
func (m *MacroActor) wakeEdge(edge Time) {
	if m.scheduled {
		if m.pending != nil && m.pending.Time() <= edge {
			return
		}
		m.sched.Cancel(m.pending)
	}
	m.scheduled = true
	m.pending = m.sched.Schedule(edge, PrioClock, m)
}

// Notify runs one cycle over all grouped components: the "DT-style inner
// loop wrapped in a notify callback" of the paper.
func (m *MacroActor) Notify(now Time) {
	m.scheduled = false
	m.pending = nil
	cycle := m.armed.cycleAt(m.clock, now)
	busy := false
	for _, c := range m.comps {
		if c.Tick(cycle, now) {
			busy = true
		}
	}
	if busy {
		if edge := m.armed.next(m.clock, now); edge != MaxTime {
			m.wakeEdge(edge)
		}
	}
}

// SingleActor wraps one Cycler as a self-scheduling actor — the baseline
// "each component is an actor" configuration of the §III-D experiment.
type SingleActor struct {
	sched *Scheduler
	clock *Clock
	comp  Cycler

	scheduled bool
	armed     edgeMemo
}

// NewSingleActor wraps comp.
func NewSingleActor(sched *Scheduler, clock *Clock, comp Cycler) *SingleActor {
	return &SingleActor{sched: sched, clock: clock, comp: comp, armed: edgeMemo{edge: -1}}
}

// Wake schedules the actor for the next clock edge if idle.
func (a *SingleActor) Wake(now Time) {
	if a.scheduled {
		return
	}
	edge := a.armed.after(a.clock, now)
	if edge == MaxTime {
		return
	}
	a.scheduled = true
	a.sched.Schedule(edge, PrioClock, a)
}

// Notify ticks the wrapped component once.
func (a *SingleActor) Notify(now Time) {
	a.scheduled = false
	if a.comp.Tick(a.armed.cycleAt(a.clock, now), now) && !a.scheduled {
		if edge := a.armed.next(a.clock, now); edge != MaxTime {
			a.scheduled = true
			a.sched.Schedule(edge, PrioClock, a)
		}
	}
}

// RunDT drives comps with the discrete-time main loop of Fig. 5a: poll
// every component each cycle, increment time, stop after cycles iterations
// or when every component reports idle for an entire sweep. It exists for
// the DE-vs-DT comparison; the simulator proper always runs DE.
func RunDT(comps []Cycler, period Time, cycles int64) (executedTicks uint64) {
	now := Time(0)
	for cycle := int64(0); cycle < cycles; cycle++ {
		busy := false
		for _, c := range comps {
			if c.Tick(cycle, now) {
				busy = true
			}
			executedTicks++
		}
		if !busy {
			break
		}
		now += period
	}
	return executedTicks
}
