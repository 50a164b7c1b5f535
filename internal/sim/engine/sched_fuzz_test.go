package engine

import (
	"math/rand"
	"testing"
)

// FuzzSchedulerOrder runs byte-driven programs against the scheduler and a
// sorted-list model of it. Every firing must be the model's minimum by
// (time, priority, sequence), and Now(), the live share of Pending() and
// Executed must agree after every operation, whatever mix of the front
// register, ring, overflow heap, cancels and peeks got the event there.
//
// A program is a string of operations, one opcode byte (mod 10) and its
// operand bytes each (missing operands read as 0):
//
//	0 at pa arg  Schedule: at picks the time (see fuzzRun.at), pa the priority
//	             (pa&3) and what the event does when it fires ((pa>>2)&7, see
//	             fuzzRun.fire), arg is that action's operand
//	1            Step
//	2 n          Step n%16 times
//	3 i          Cancel the i-th pending event
//	4 at         RunUntil
//	5            NextTime
//	6 at         AdvanceTo, no further than the earliest pending event
//	7 w          SetBucketWidth(1, 6, 8 or 24) if nothing is pending
//	8 at         ScheduleStop
//	9 n          Stop, if n%8 == 0
//
// and whatever is still pending at the end is stepped to exhaustion.
func FuzzSchedulerOrder(f *testing.F) {
	const (
		sched = iota
		step
		steps
		cancel
		runUntil
		nextTime
		advance
		width
		schedStop
		stop
	)
	// at-byte classes (fuzzRun.at): value v in class c is c<<5 | v.
	const ticks, edges, horizon, spans, far, nextEdge, tie = 1 << 5, 2 << 5, 3 << 5, 4 << 5, 5 << 5, 6 << 5, 7 << 5
	// pa byte: priority | action<<2.
	const rearm, child, cancelOther, stopRun, sameTime = 1 << 2, 2 << 2, 3 << 2, 4 << 2, 5 << 2

	// TestOverflowHorizonOrdering: descending far-future times, then
	// descending near ones.
	var p []byte
	for i := byte(20); i > 0; i-- {
		p = append(p, sched, far|i, 2, 0)
	}
	for i := byte(5); i > 0; i-- {
		p = append(p, sched, ticks|i, 2, 0)
	}
	f.Add(p)
	// TestMigrateHorizonBoundary: an event fires and leaves the cursor on its
	// bucket; then one tick inside, at and past the horizon, in descending
	// order — at width 1, at 8 and at 6 (which buckets 4 wide).
	for _, w := range []byte{0, 2, 1} {
		f.Add([]byte{width, w, sched, ticks | 25, 2, 0, step,
			sched, spans | 8, 2, 0, sched, horizon | 2, 2, 0, sched, horizon | 1, 2, 0, sched, horizon | 0, 2, 0, sched, ticks | 1, 2, 0})
	}
	// TestScheduleBehindParkedCursor: a near and a far event, RunUntil between
	// them, then schedules just past the deadline in descending order.
	f.Add([]byte{sched, ticks | 10, 2, 0, sched, spans | 12, 2, 0, runUntil, horizon | 0, sched, spans | 1, 2, 0, sched, ticks | 1, 2, 0})
	// The same with peeks where RunUntil was.
	f.Add([]byte{sched, ticks | 10, 2, 0, sched, spans | 12, 2, 0, step, nextTime, sched, spans | 1, 2, 0, nextTime, sched, ticks | 1, 2, 0})
	// The serial-section shape: a clock-edge actor re-arming itself with one
	// far-future event pending, single-stepped, with a tie and a cancel of
	// the front event on the way.
	f.Add([]byte{width, 2, sched, far | 3, 3, 0, sched, nextEdge, rearm, 0, steps, 15, nextTime,
		sched, tie | 0, 0, 0, step, step, cancel, 0, steps, 15, sched, nextEdge, rearm, 0, runUntil, spans | 3})
	// Events that schedule, cancel and stop from inside Notify.
	f.Add([]byte{sched, ticks | 3, child, spans | 9, sched, ticks | 3, sameTime | 1, 0, sched, ticks | 4, cancelOther, 1,
		sched, edges | 9, stopRun | 2, 0, sched, far | 1, 0, 0, schedStop, spans | 2, steps, 15, advance, ticks | 7, stop, 0, step})
	// A canceled event in the heap that AdvanceTo left behind now: the cursor
	// re-based to now must drop it, not file it under a slot of the new window.
	f.Add([]byte("1100002x00!0y!08x00"))
	// TestPopOrderMatchesSortedReference: random mixes of everything.
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 8; i++ {
		p := make([]byte, 400)
		rng.Read(p)
		f.Add(p)
	}

	f.Fuzz(func(t *testing.T, prog []byte) {
		r := &fuzzRun{t: t, s: New(), prog: prog, rearms: 300}
		for r.pc < len(r.prog) && !t.Failed() {
			switch op := r.byte() % 10; op {
			case sched:
				at, pa, arg := r.at(r.byte()), r.byte(), r.byte()
				r.schedule(at, Priority(pa&3)*100, pa>>2&7, arg)
			case step:
				r.step()
			case steps:
				for n := r.byte() % 16; n > 0; n-- {
					r.step()
				}
			case cancel:
				r.cancel(r.byte())
			case runUntil:
				r.runUntil(r.at(r.byte()))
			case nextTime:
				// checked after every operation, below
			case advance:
				at := r.at(r.byte())
				if m := r.min(); m != nil && m.at < at {
					at = m.at
				}
				r.s.AdvanceTo(at)
				r.now = max(r.now, at)
			case width:
				if r.s.Pending() == 0 {
					r.s.SetBucketWidth([]Time{1, 6, 8, 24}[r.byte()%4])
				}
			case schedStop:
				at := r.at(r.byte())
				r.live = append(r.live, &fuzzEvent{at: at, prio: PrioStop, seq: r.seq, stop: true, h: r.s.ScheduleStop(at)})
				r.seq++
			case stop:
				if r.byte()%8 == 0 {
					r.s.Stop()
					r.stopped = true
				}
			}
			r.check()
		}
		for n := 0; len(r.live) > 0 && !r.stopped && !t.Failed(); n++ {
			if n > 5000 {
				t.Fatalf("%d events still pending after 5000 steps", len(r.live))
			}
			r.step()
			r.check()
		}
		if r.s.Step() {
			t.Fatal("Step returned true on a drained or stopped scheduler")
		}
	})
}

// fuzzEvent is the model's record of one pending event.
type fuzzEvent struct {
	at       Time
	prio     Priority
	seq      int
	stop     bool
	act, arg byte
	h        *Event
}

type fuzzRun struct {
	t    *testing.T
	s    *Scheduler
	prog []byte
	pc   int

	// The model: pending live events (unordered), time, stop flag, counts.
	live     []*fuzzEvent
	now      Time
	stopped  bool
	seq      int
	executed uint64
	rearms   int  // self-reschedules left, so every program ends
	deadline Time // of the RunUntil in progress, else MaxTime
}

func (r *fuzzRun) byte() byte {
	if r.pc >= len(r.prog) {
		return 0
	}
	r.pc++
	return r.prog[r.pc-1]
}

// at turns an operand byte into a time at or after now: 3 bits of class, 5
// of value, measured in ticks, buckets or ring spans so that a few bytes
// reach the same bucket, the next one, the ring's horizon and the heap.
func (r *fuzzRun) at(b byte) Time {
	v, w := Time(b&31), Time(1)<<r.s.shift
	span := numBuckets * w
	switch b >> 5 {
	case 0:
		return r.now
	case 1:
		return r.now + v
	case 2:
		return r.now + v*w
	case 3:
		return r.now + span - w + v
	case 4:
		return r.now + v*span/4
	case 5:
		return r.now + (40+v)*span
	case 6:
		return r.now + w
	}
	if len(r.live) > 0 { // the time of a pending event: a tie
		if e := r.live[int(v)%len(r.live)]; e.at >= r.now {
			return e.at
		}
	}
	return r.now
}

func (r *fuzzRun) less(a, b *fuzzEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

func (r *fuzzRun) min() (m *fuzzEvent) {
	for _, e := range r.live {
		if m == nil || r.less(e, m) {
			m = e
		}
	}
	return m
}

func (r *fuzzRun) remove(e *fuzzEvent) {
	for i, l := range r.live {
		if l == e {
			r.live[i] = r.live[len(r.live)-1]
			r.live = r.live[:len(r.live)-1]
			return
		}
	}
	r.t.Fatalf("event seq %d is not pending in the model", e.seq)
}

func (r *fuzzRun) schedule(at Time, prio Priority, act, arg byte) {
	e := &fuzzEvent{at: at, prio: prio, seq: r.seq, act: act, arg: arg}
	r.seq++
	e.h = r.s.Schedule(at, prio, ActorFunc(func(now Time) { r.fire(e, now) }))
	r.live = append(r.live, e)
}

func (r *fuzzRun) cancel(i byte) {
	if len(r.live) == 0 {
		return
	}
	e := r.live[int(i)%len(r.live)]
	r.s.Cancel(e.h)
	r.remove(e)
}

// fire is every event's Notify: the event must be the model's next, and then
// does what its action byte says, to scheduler and model alike.
func (r *fuzzRun) fire(e *fuzzEvent, now Time) {
	if m := r.min(); m != e {
		r.t.Fatalf("event (t=%d prio=%d seq=%d) fired; the model's next is %+v", e.at, e.prio, e.seq, m)
	}
	if now != e.at || r.s.Now() != now || now > r.deadline {
		r.t.Fatalf("event for t=%d fired at %d with Now()=%d, deadline %d", e.at, now, r.s.Now(), r.deadline)
	}
	r.remove(e)
	r.now = now
	r.executed++
	if r.s.Executed != r.executed {
		r.t.Fatalf("Executed = %d inside firing %d", r.s.Executed, r.executed)
	}
	switch e.act {
	case 1: // a clock-edge actor re-arming itself at the next edge
		if r.rearms > 0 {
			r.rearms--
			r.schedule(now+Time(1)<<r.s.shift, e.prio, 1, 0)
		}
	case 2: // schedule another event
		r.schedule(r.at(e.arg), Priority(e.arg&3)*100, 0, 0)
	case 3:
		r.cancel(e.arg)
	case 4:
		r.s.Stop()
		r.stopped = true
	case 5: // same time: same priority (a tie) or another
		r.schedule(now, Priority(e.arg&3)*100, 0, 0)
	}
}

// stopEvent applies the model's next event if it is a due stop event, which
// the scheduler consumes without a Notify.
func (r *fuzzRun) stopEvent(deadline Time) {
	if m := r.min(); m != nil && m.stop && m.at <= deadline && !r.stopped {
		r.remove(m)
		r.now = m.at
		r.stopped = true
	}
}

func (r *fuzzRun) step() {
	want := r.min()
	fires := want != nil && !want.stop && !r.stopped
	before := r.executed
	r.deadline = MaxTime
	ok := r.s.Step()
	if ok != fires {
		r.t.Fatalf("Step() = %v, model expects %v", ok, fires)
	}
	if fires && r.executed != before+1 {
		r.t.Fatalf("Step() fired %d events", r.executed-before)
	}
	if !fires {
		r.stopEvent(MaxTime)
	}
}

func (r *fuzzRun) runUntil(deadline Time) {
	r.deadline = deadline
	r.s.RunUntil(deadline)
	r.deadline = MaxTime
	r.stopEvent(deadline)
	if m := r.min(); m != nil && !r.stopped {
		if m.at <= deadline {
			r.t.Fatalf("RunUntil(%d) left an event for t=%d pending", deadline, m.at)
		}
		r.now = max(r.now, deadline)
	}
}

// check compares scheduler and model after an operation and verifies the
// calendar's structural invariants.
func (r *fuzzRun) check() {
	t, s := r.t, r.s
	if s.Now() != r.now || s.Stopped() != r.stopped || s.Executed != r.executed {
		t.Fatalf("Now()=%d Stopped()=%v Executed=%d, model has %d %v %d",
			s.Now(), s.Stopped(), s.Executed, r.now, r.stopped, r.executed)
	}
	if got := s.Pending() - s.canceled; got != len(r.live) {
		t.Fatalf("Pending()=%d of which %d canceled; model has %d pending", s.Pending(), s.canceled, len(r.live))
	}
	want := MaxTime
	if m := r.min(); m != nil {
		want = m.at
	}
	if got := s.NextTime(); got != want {
		t.Fatalf("NextTime()=%d, model says %d", got, want)
	}
	checkCalendar(t, s)
}

// checkCalendar verifies what the scheduler's fields promise each other.
func checkCalendar(t *testing.T, s *Scheduler) {
	t.Helper()
	cur := int(s.curB & slotMask)
	ringN, canceled := 0, 0
	queued := func(e *Event) {
		if e.canceled {
			canceled++
		}
		if s.front != nil && !less(s.front, e) {
			t.Fatalf("front event (t=%d prio=%d seq=%d) does not precede queued (t=%d prio=%d seq=%d)",
				s.front.time, s.front.prio, s.front.seq, e.time, e.prio, e.seq)
		}
	}
	for slot, bk := range s.buckets {
		n := 0
		for i, e := range bk {
			if e == nil {
				if slot != cur || i >= s.head {
					t.Fatalf("slot %d holds a nil at %d outside the cursor's consumed prefix", slot, i)
				}
				continue
			}
			n++
			queued(e)
			if b := e.time >> s.shift; int(b&slotMask) != slot || b < s.curB || b-s.curB >= numBuckets {
				t.Fatalf("slot %d holds an event of bucket %d; the cursor is at %d", slot, b, s.curB)
			}
			if slot == cur && s.sorted && i > s.head && !less(bk[i-1], e) {
				t.Fatalf("cursor bucket out of order at %d", i)
			}
		}
		if (n > 0) != s.occ.Has(slot) {
			t.Fatalf("slot %d holds %d events, occupancy bit %v", slot, n, s.occ.Has(slot))
		}
		if n == 0 && (len(bk) != 0 || slot == cur && (s.head != 0 || s.sorted)) {
			t.Fatalf("spent slot %d was not reset: len %d head %d sorted %v", slot, len(bk), s.head, s.sorted)
		}
		ringN += n
	}
	if ringN != s.ringN {
		t.Fatalf("ring holds %d events, ringN = %d", ringN, s.ringN)
	}
	if ringN > 0 && s.curB > s.now>>s.shift {
		t.Fatalf("cursor at bucket %d is ahead of now=%d", s.curB, s.now)
	}
	for i, e := range s.overflow {
		queued(e)
		if e.time>>s.shift-s.curB < numBuckets {
			t.Fatalf("overflow holds an event of bucket %d inside the ring window at %d", e.time>>s.shift, s.curB)
		}
		if i > 0 && less(e, s.overflow[(i-1)/heapArity]) {
			t.Fatalf("overflow heap out of order at %d", i)
		}
	}
	if canceled != s.canceled {
		t.Fatalf("%d canceled events queued, canceled = %d", canceled, s.canceled)
	}
}
