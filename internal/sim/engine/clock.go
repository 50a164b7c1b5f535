package engine

import "fmt"

// Clock is an independently adjustable clock domain (clusters, ICN, shared
// caches and DRAM controllers each get one, per paper §III-B). Frequencies
// can be changed, and the domain gated off entirely, at runtime through the
// activity plug-in interface; the clock keeps a piecewise-linear mapping
// between simulated time and its local cycle count so that cycle counters
// stay consistent across DVFS transitions.
type Clock struct {
	Name      string
	baseTime  Time  // time of cycle baseCycle's edge
	baseCycle int64 // cycle count at baseTime
	period    Time  // ticks per cycle; 0 while gated
	enabled   bool

	savedPeriod Time // period to restore on Enable

	// gen counts the times the edge grid moved (SetPeriod, Disable, Enable).
	// An edgeMemo made under one generation says nothing about the next.
	gen uint32
}

// NewClock creates an enabled clock with the given period (ticks/cycle).
func NewClock(name string, period Time) *Clock {
	if period <= 0 {
		panic(fmt.Sprintf("engine: clock %s: period %d", name, period))
	}
	return &Clock{Name: name, period: period, enabled: true}
}

// Period returns the current period, or 0 when the domain is gated.
func (c *Clock) Period() Time {
	if !c.enabled {
		return 0
	}
	return c.period
}

// Enabled reports whether the domain is running.
func (c *Clock) Enabled() bool { return c.enabled }

// Cycle returns the domain-local cycle count at time now.
func (c *Clock) Cycle(now Time) int64 {
	if !c.enabled || now <= c.baseTime {
		return c.baseCycle
	}
	return c.baseCycle + (now-c.baseTime)/c.period
}

// NextEdge returns the first clock edge strictly after now, or MaxTime when
// the domain is gated off.
func (c *Clock) NextEdge(now Time) Time {
	edge, _ := c.edgeAfter(now)
	return edge
}

// edgeAfter is NextEdge and the cycle count at that edge, for one divide.
func (c *Clock) edgeAfter(now Time) (edge Time, cycle int64) {
	if !c.enabled {
		return MaxTime, c.baseCycle
	}
	if now < c.baseTime {
		return c.baseTime, c.baseCycle
	}
	n := (now-c.baseTime)/c.period + 1
	return c.baseTime + n*c.period, c.baseCycle + n
}

// EdgeAt returns the time of the edge of the given domain-local cycle.
// It is only valid for cycles at or after the last SetPeriod/Enable.
func (c *Clock) EdgeAt(cycle int64) Time {
	if !c.enabled {
		return MaxTime
	}
	if cycle < c.baseCycle {
		cycle = c.baseCycle
	}
	return c.baseTime + (cycle-c.baseCycle)*c.period
}

// SetPeriod changes the domain frequency at time now. The cycle counter is
// re-based so cycles completed so far are preserved.
func (c *Clock) SetPeriod(now, period Time) {
	if period <= 0 {
		panic(fmt.Sprintf("engine: clock %s: period %d", c.Name, period))
	}
	c.rebase(now)
	c.period = period
	c.savedPeriod = period
	c.enabled = true
}

// Disable gates the domain off at time now; components on it see no further
// edges until Enable.
func (c *Clock) Disable(now Time) {
	if !c.enabled {
		return
	}
	c.rebase(now)
	c.savedPeriod = c.period
	c.enabled = false
}

// Enable restores a gated domain at time now with its previous frequency.
func (c *Clock) Enable(now Time) {
	if c.enabled {
		return
	}
	if c.savedPeriod <= 0 {
		c.savedPeriod = 1
	}
	c.baseTime = now
	c.period = c.savedPeriod
	c.enabled = true
	c.gen++
}

func (c *Clock) rebase(now Time) {
	if c.enabled {
		c.baseCycle = c.Cycle(now)
	}
	c.baseTime = now
	c.gen++
}

// edgeMemo is a self-scheduling actor's memory of one edge of its clock's
// current grid and the cycle that edge begins: the edge it armed last, or
// the one it is being notified on. Cycle and NextEdge each cost a 64-bit
// divide, and an actor that re-arms itself at every edge would pay both on
// every notification; but notified on the edge it armed, under a clock
// nobody has re-based since, it already knows the cycle, and the next edge
// is one period on.
type edgeMemo struct {
	edge  Time // -1 when no edge is known
	cycle int64
	gen   uint32
}

// after is c.NextEdge(now), remembered.
func (m *edgeMemo) after(c *Clock, now Time) Time {
	m.edge, m.cycle = c.edgeAfter(now)
	m.gen = c.gen
	return m.edge
}

// cycleAt is c.Cycle(now). It leaves now in the memo if it is an edge.
func (m *edgeMemo) cycleAt(c *Clock, now Time) int64 {
	if now != m.edge || c.gen != m.gen {
		m.cycle, m.gen = c.Cycle(now), c.gen
		m.edge = -1
		if c.EdgeAt(m.cycle) == now {
			m.edge = now
		}
	}
	return m.cycle
}

// next is c.NextEdge(now), remembered, for the now of the cycleAt before it.
// The components ticked in between may have re-based the clock.
func (m *edgeMemo) next(c *Clock, now Time) Time {
	if now != m.edge || c.gen != m.gen {
		return m.after(c, now)
	}
	m.edge, m.cycle = now+c.period, m.cycle+1
	return m.edge
}
