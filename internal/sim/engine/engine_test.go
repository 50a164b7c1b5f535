package engine

import (
	"sort"
	"testing"
	"testing/quick"
)

// TestEventOrdering: events fire in (time, priority, insertion) order —
// the invariant the whole DE simulation rests on.
func TestEventOrdering(t *testing.T) {
	s := New()
	var got []int
	rec := func(id int) ActorFunc {
		return func(now Time) { got = append(got, id) }
	}
	s.Schedule(30, PrioTransfer, rec(5))
	s.Schedule(10, PrioTransfer, rec(1))
	s.Schedule(10, PrioNegotiate, rec(0)) // same time, higher priority first
	s.Schedule(20, PrioClock, rec(2))
	s.Schedule(20, PrioClock, rec(3)) // same time+prio: insertion order
	s.Schedule(25, PrioClock, rec(4))
	s.Run()
	want := []int{0, 1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	if s.Now() != 30 {
		t.Fatalf("now = %d", s.Now())
	}
}

// TestEventOrderingProperty: random schedules pop in sorted order.
func TestEventOrderingProperty(t *testing.T) {
	f := func(times []uint16, prios []uint8) bool {
		if len(times) == 0 {
			return true
		}
		s := New()
		type key struct {
			t   Time
			p   Priority
			seq int
		}
		var want []key
		var got []key
		for i, tt := range times {
			p := Priority(0)
			if i < len(prios) {
				p = Priority(prios[i])
			}
			k := key{Time(tt), p, i}
			want = append(want, k)
			kk := k
			s.Schedule(Time(tt), p, ActorFunc(func(now Time) {
				got = append(got, kk)
			}))
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].t != want[j].t {
				return want[i].t < want[j].t
			}
			if want[i].p != want[j].p {
				return want[i].p < want[j].p
			}
			return want[i].seq < want[j].seq
		})
		s.Run()
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCancelAndStop(t *testing.T) {
	s := New()
	fired := 0
	ev := s.ScheduleFunc(10, PrioClock, func(Time) { fired++ })
	s.ScheduleFunc(20, PrioClock, func(Time) { fired++ })
	s.Cancel(ev)
	s.ScheduleStop(15)
	s.Run()
	if fired != 0 {
		t.Fatalf("fired = %d, want 0 (first canceled, second after stop)", fired)
	}
	if !s.Stopped() {
		t.Fatal("not stopped")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	s.ScheduleFunc(10, PrioClock, func(Time) {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past must panic")
		}
	}()
	s.stopped = false
	s.ScheduleFunc(5, PrioClock, func(Time) {})
}

func TestRunUntil(t *testing.T) {
	s := New()
	var fired []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		s.ScheduleFunc(at, PrioClock, func(now Time) { fired = append(fired, now) })
	}
	s.RunUntil(12)
	if len(fired) != 2 {
		t.Fatalf("fired %v", fired)
	}
	s.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("fired %v", fired)
	}
}

func TestClockCycleMapping(t *testing.T) {
	c := NewClock("c", 8)
	if c.Cycle(0) != 0 || c.Cycle(7) != 0 || c.Cycle(8) != 1 || c.Cycle(80) != 10 {
		t.Fatal("cycle mapping wrong")
	}
	if c.NextEdge(0) != 8 || c.NextEdge(8) != 16 || c.NextEdge(9) != 16 {
		t.Fatal("next edge wrong")
	}
	if c.EdgeAt(5) != 40 {
		t.Fatalf("EdgeAt(5) = %d", c.EdgeAt(5))
	}
}

// TestClockDVFS: frequency changes preserve completed cycles — the
// counters an activity plug-in reads stay consistent.
func TestClockDVFS(t *testing.T) {
	c := NewClock("c", 8)
	if got := c.Cycle(80); got != 10 {
		t.Fatalf("cycle(80) = %d", got)
	}
	c.SetPeriod(80, 16) // halve the frequency at t=80
	if got := c.Cycle(80); got != 10 {
		t.Fatalf("cycle preserved across DVFS: got %d", got)
	}
	if got := c.Cycle(80 + 160); got != 20 {
		t.Fatalf("after slow-down: got %d, want 20", got)
	}
	c.Disable(240)
	if c.NextEdge(240) != MaxTime {
		t.Fatal("disabled clock must have no edges")
	}
	if c.Cycle(1000) != 20 {
		t.Fatal("disabled clock must not advance")
	}
	c.Enable(1000)
	if c.Period() != 16 {
		t.Fatal("enable must restore the saved period")
	}
	if c.Cycle(1000+32) != 22 {
		t.Fatalf("after enable: %d", c.Cycle(1032))
	}
}

// counter is a Cycler that counts its ticks and runs for a fixed span.
type counter struct {
	ticks int64
	limit int64
}

func (c *counter) Tick(cycle int64, now Time) bool {
	c.ticks++
	return c.ticks < c.limit
}

func TestMacroActorTicksAllComponents(t *testing.T) {
	s := New()
	clk := NewClock("c", 4)
	ma := NewMacroActor("m", s, clk)
	comps := make([]*counter, 10)
	for i := range comps {
		comps[i] = &counter{limit: 50}
		ma.Add(comps[i])
	}
	ma.Wake(0)
	s.Run()
	for i, c := range comps {
		if c.ticks != 50 {
			t.Fatalf("component %d ticked %d times", i, c.ticks)
		}
	}
	// One event per cycle regardless of component count.
	if s.Executed != 50 {
		t.Fatalf("executed %d events, want 50", s.Executed)
	}
}

func TestSingleActorsScheduleIndividually(t *testing.T) {
	s := New()
	clk := NewClock("c", 4)
	comps := make([]*counter, 10)
	for i := range comps {
		comps[i] = &counter{limit: 50}
		NewSingleActor(s, clk, comps[i]).Wake(0)
	}
	s.Run()
	if s.Executed != 500 {
		t.Fatalf("executed %d events, want 500 (one per component per cycle)", s.Executed)
	}
}

// TestMacroActorIdleWake: an idle macro-actor deschedules and can be
// re-woken; this is how memory responses restart sleeping clusters.
func TestMacroActorIdleWake(t *testing.T) {
	s := New()
	clk := NewClock("c", 4)
	c := &counter{limit: 3}
	ma := NewMacroActor("m", s, clk)
	ma.Add(c)
	ma.Wake(0)
	s.Run()
	if c.ticks != 3 {
		t.Fatalf("ticks = %d", c.ticks)
	}
	// Re-arm the component and wake again; simulation resumes.
	c.limit = 6
	s.stopped = false
	ma.Wake(s.Now())
	s.Run()
	if c.ticks != 6 {
		t.Fatalf("ticks after rewake = %d", c.ticks)
	}
}

func TestRunDTMatchesDE(t *testing.T) {
	mk := func(n int) []Cycler {
		out := make([]Cycler, n)
		for i := range out {
			out[i] = &counter{limit: 20}
		}
		return out
	}
	comps := mk(7)
	RunDT(comps, 4, 1000)
	for _, c := range comps {
		if c.(*counter).ticks != 20 {
			t.Fatalf("DT ticks = %d", c.(*counter).ticks)
		}
	}
}

// The front register holds an event only while it sorts strictly before
// everything else pending, and every operation sees through it.
func TestFrontRegister(t *testing.T) {
	s := New()
	var got []string
	ev := func(name string) ActorFunc { return func(Time) { got = append(got, name) } }

	a := s.Schedule(40, PrioClock, ev("a"))
	if s.front != a || s.Pending() != 1 || s.NextTime() != 40 {
		t.Fatalf("a lone event must sit in the front register: front=%v pending=%d next=%d", s.front == a, s.Pending(), s.NextTime())
	}
	// Same time and priority: the newer sequence number fires later, so a
	// tie does not take the register. A lower priority value does.
	b := s.Schedule(40, PrioClock, ev("b"))
	if s.front != a {
		t.Fatal("a tie displaced the front event")
	}
	s.Schedule(40, PrioTransfer, ev("c"))
	d := s.Schedule(30, PrioTransfer, ev("d"))
	if s.front != d || s.Pending() != 4 {
		t.Fatalf("an earlier event must displace the front one: front is d=%v, pending=%d", s.front == d, s.Pending())
	}
	// Canceling the front event frees the register at once; the next event
	// comes from the queue, in order.
	s.Cancel(d)
	if s.front != nil || s.Pending() != 3 || s.NextTime() != 40 {
		t.Fatalf("after canceling the front event: front=%v pending=%d next=%d", s.front != nil, s.Pending(), s.NextTime())
	}
	s.Cancel(b)
	// One event per Step, Executed counting each, whichever way it came.
	for i, want := range []string{"a", "c"} {
		if !s.Step() || s.Executed != uint64(i+1) || got[i] != want {
			t.Fatalf("step %d fired %v (Executed=%d), want %s", i, got, s.Executed, want)
		}
	}
	if s.Step() || s.Pending() != 0 {
		t.Fatalf("drained scheduler stepped; pending=%d", s.Pending())
	}
}

// A macro-actor alone on the list never enters the calendar, yet is still
// one event per Step, and a stop event far in the future ends the run.
func TestFrontRegisterSelfRearm(t *testing.T) {
	s := New()
	s.SetBucketWidth(8)
	c := &counter{limit: 1 << 30}
	ma := NewMacroActor("m", s, NewClock("c", 8), c)
	s.ScheduleStop(8 * 10_000)
	ma.Wake(0)
	for i := int64(1); i <= 100; i++ {
		if !s.Step() || c.ticks != i || s.Executed != uint64(i) || s.Now() != 8*i {
			t.Fatalf("step %d: ticks=%d Executed=%d now=%d", i, c.ticks, s.Executed, s.Now())
		}
		if s.ringN != 0 || s.front == nil || s.Pending() != 2 {
			t.Fatalf("step %d: the re-armed edge went to the queue (ringN=%d, pending=%d)", i, s.ringN, s.Pending())
		}
	}
	s.Run()
	if !s.Stopped() || s.Now() != 80_000 || c.ticks != 10_000 {
		t.Fatalf("stopped=%v now=%d ticks=%d", s.Stopped(), s.Now(), c.ticks)
	}
}

// gridCheck is a Cycler that compares the cycle its macro-actor derived with
// the clock's own answer, and the edge it was notified at with the one the
// clock named at the previous tick.
type gridCheck struct {
	t        *testing.T
	clk      *Clock
	ticks    int
	nextEdge Time // NextEdge at the last tick; 0 before the first
	rebased  bool // the clock moved since: the pending edge is off the new grid
}

func (g *gridCheck) Tick(cycle int64, now Time) bool {
	g.ticks++
	if want := g.clk.Cycle(now); cycle != want {
		g.t.Fatalf("tick %d at t=%d: derived cycle %d, clock says %d", g.ticks, now, cycle, want)
	}
	if g.nextEdge != 0 && !g.rebased && now != g.nextEdge {
		g.t.Fatalf("tick %d at t=%d: the clock's next edge was %d", g.ticks, now, g.nextEdge)
	}
	g.nextEdge, g.rebased = g.clk.NextEdge(now), false
	return true
}

// The divide-free edge path (cycle+1, now+period) must agree with the clock
// across every way the clock can be re-based under a running actor: period
// changes on and off an edge, a gate, and an actor woken onto a new grid
// while its old edge is still pending.
func TestMacroActorEdgesAcrossRebase(t *testing.T) {
	for _, single := range []bool{false, true} {
		s := New()
		clk := NewClock("c", 8)
		g := &gridCheck{t: t, clk: clk}
		wake := NewMacroActor("m", s, clk, g).Wake
		if single {
			wake = NewSingleActor(s, clk, g).Wake
		}
		rebase := func(at Time, f func(now Time)) {
			s.ScheduleFunc(at, PrioStop-1, func(now Time) {
				f(now)
				g.rebased = true
				wake(now)
			})
		}
		rebase(80, func(now Time) { clk.SetPeriod(now, 6) })  // on an edge
		rebase(203, func(now Time) { clk.SetPeriod(now, 7) }) // between edges
		rebase(300, func(now Time) { clk.Disable(now) })
		rebase(420, func(now Time) { clk.Enable(now) })
		rebase(421, func(now Time) { clk.SetPeriod(now, 24) })
		rebase(1000, func(now Time) { clk.SetPeriod(now, 1) })
		s.ScheduleStop(1100)
		wake(0)
		s.Run()
		// The count pins the schedule as a whole; both are what the dividing
		// implementation produced. (A woken SingleActor keeps an edge it has
		// pending, a MacroActor pulls it in to the new grid's next edge.)
		if want := map[bool]int{false: 170, true: 150}[single]; g.ticks != want {
			t.Fatalf("single=%v: %d ticks, want %d", single, g.ticks, want)
		}
	}
}
