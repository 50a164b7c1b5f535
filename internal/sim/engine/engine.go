// Package engine implements the discrete-event simulation core of XMTSim
// (paper §III-C): an event list ordered by time and priority, actors that
// are notified via callbacks when their events come due, priorities that
// split a clock cycle into a negotiate and a transfer phase (packages move
// between cycle-accurate components in the second), macro-actors that
// iterate many components per event (the optimization that beats
// per-component scheduling past the ~800-events-per-cycle threshold the
// paper measured), and independently clocked domains whose frequencies can
// be changed — or gated off — at runtime by activity plug-ins.
//
// The event list is a bucketed calendar queue behind a one-event front
// register: an event that sorts before everything pending — a macro-actor
// re-arming its next edge while the rest of the machine waits — never enters
// the queue. Near-future events live in a ring of power-of-two-wide time
// buckets (sorted lazily when the cursor reaches them) with an occupancy
// bitmap, so the cursor jumps from one non-empty bucket to the next;
// far-future events overflow into a 4-ary min-heap and migrate into the ring
// as the cursor advances. Event structs are pooled. docs/PERF.md §The event
// list has the invariants.
//
// A discrete-time (DT) main loop over the same component interface is
// provided solely to reproduce the paper's Fig. 5 / §III-D comparison.
package engine

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"xmtgo/internal/bitset"
)

// Time is simulated time. The unit is abstract ("ticks"); clock domains map
// cycles onto it via their period, so asynchronous components can use a
// continuous time concept as the paper's DE design intends.
type Time = int64

// MaxTime is the largest representable simulated time.
const MaxTime Time = math.MaxInt64

// Priority orders events that share a timestamp. Lower runs first. The two
// port phases of a clock cycle (negotiate, then transfer) map onto these.
type Priority int32

// Standard priorities. Components are free to use intermediate values.
const (
	PrioClock     Priority = 0   // clock-edge actor notifications
	PrioNegotiate Priority = 100 // phase 1: negotiate package transfers
	PrioTransfer  Priority = 200 // phase 2: move packages between components
	PrioStop      Priority = 300 // the stop event runs after all same-time work
)

// Actor is an object that schedules events and is notified via a callback
// when the time of an event it previously scheduled comes.
type Actor interface {
	Notify(now Time)
}

// ActorFunc adapts a function to the Actor interface.
type ActorFunc func(now Time)

// Notify calls f(now).
func (f ActorFunc) Notify(now Time) { f(now) }

// Event is a scheduled notification. Events are owned by the scheduler;
// holders may only Cancel them, and only while the event is still pending:
// once an event has fired (or been dropped after a Cancel) its struct is
// recycled and the handle is dead.
type Event struct {
	time     Time
	prio     Priority
	seq      uint64
	actor    Actor
	canceled bool
	stop     bool
}

// Time returns the time the event fires.
func (e *Event) Time() Time { return e.time }

const (
	// numBuckets is the calendar ring size (a power of two). With the
	// default bucket width of one tick the ring covers 512 ticks; the
	// cycle-accurate system widens buckets to its clock-period GCD, so the
	// horizon covers even the DRAM round-trip latencies and almost no
	// event pays the overflow heap.
	numBuckets = 512
	slotMask   = numBuckets - 1

	// maxFree bounds the event pool so a burst does not pin memory.
	maxFree = 8192

	// compactMin is the minimum queue length before cancel-compaction
	// kicks in (below it, lazy deletion is cheap enough).
	compactMin = 128
)

// Scheduler is the DE manager: it keeps events ordered by (time, priority,
// insertion sequence) and drives the main loop of Fig. 5b.
type Scheduler struct {
	now     Time
	seq     uint64
	stopped bool
	// Executed counts processed (non-canceled) events, used by the
	// macro-actor threshold experiment.
	Executed uint64

	// front is the next-event register. The event in it sorts strictly
	// before every event in the ring and the overflow heap, so Step takes it
	// without touching either. An event enters it only when it is scheduled
	// ahead of everything pending by (time, priority): its sequence number
	// is the newest, so on a tie it would fire last, not first.
	front *Event

	// Calendar ring: slot i of buckets holds the events of absolute bucket
	// number b ≡ i (mod numBuckets) for the window [curB, curB+numBuckets),
	// and occ has bit i set while the slot holds an event that has not been
	// popped. Only the cursor bucket (curB) is kept sorted; head is its
	// consumed prefix (consumed slots are nil). The cursor moves only to the
	// bucket of the event Step is about to pop, so it is never ahead of now
	// while the ring holds anything, and no push can land behind it.
	shift   uint // log2 of the bucket width in ticks
	buckets *[numBuckets][]*Event
	occ     bitset.Set
	curB    int64 // absolute bucket number under the cursor
	head    int
	sorted  bool
	ringN   int // events in the ring, including canceled ones

	// overflow is a 4-ary min-heap of the events past the ring horizon:
	// every one of them lies in bucket curB+numBuckets or later.
	overflow []*Event
	canceled int      // canceled events still queued in ring or overflow
	free     []*Event // event pool
}

// New returns an empty scheduler at time 0 with a one-tick bucket width.
func New() *Scheduler {
	return &Scheduler{buckets: new([numBuckets][]*Event), occ: bitset.New(numBuckets)}
}

// SetBucketWidth tunes the calendar-queue bucket width, typically to the
// GCD of the clock-domain periods so one bucket holds the events of one
// edge. Buckets are a power of two wide so that finding an event's bucket is
// a shift: w is rounded down to one, which keeps at most one edge per bucket
// and shortens the ring's horizon by less than half. It may only be called
// while no events are pending.
func (s *Scheduler) SetBucketWidth(w Time) {
	if w <= 0 {
		panic(fmt.Sprintf("engine: bucket width %d", w))
	}
	if s.Pending() != 0 {
		panic("engine: SetBucketWidth with pending events")
	}
	s.shift = uint(bits.Len64(uint64(w)) - 1)
	s.curB = s.now >> s.shift
}

// Now returns the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// NextTime returns the time of the earliest pending event (MaxTime when
// there is none). It is a pure read: neither the event nor the calendar
// cursor moves. The bounded-lookahead window uses it to find how far the
// cluster domain can run before any other component has an event due.
func (s *Scheduler) NextTime() Time {
	if e := s.peek(); e != nil {
		return e.time
	}
	return MaxTime
}

// AdvanceTo moves the current time forward to t without processing events.
// It exists for one narrow purpose: when a multi-cycle lookahead window
// stops the simulation mid-window (halt, failure, checkpoint trap), the
// stopping cycle's edge lies past the window-entry event time that Now()
// reports. The committing component advances the clock to the cycle it
// actually stopped at so Result.Cycles/Ticks match a single-cycle run.
// Only valid when the simulation is stopping: events between now and t
// would otherwise fire late (and the calendar cursor trusts that none do).
func (s *Scheduler) AdvanceTo(t Time) {
	if t > s.now {
		s.now = t
	}
}

// Pending returns the number of events in the list (including canceled
// events not yet dropped; compaction keeps that share bounded).
func (s *Scheduler) Pending() int {
	n := s.ringN + len(s.overflow)
	if s.front != nil {
		n++
	}
	return n
}

// Schedule enqueues a notification for actor a at time at with priority p.
// Scheduling in the past panics: it indicates a component bug.
func (s *Scheduler) Schedule(at Time, p Priority, a Actor) *Event {
	if at < s.now {
		panic(fmt.Sprintf("engine: schedule at %d before now %d", at, s.now))
	}
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free = s.free[:n-1]
		e.time, e.prio, e.seq, e.actor = at, p, s.seq, a
		e.canceled, e.stop = false, false
	} else {
		e = &Event{time: at, prio: p, seq: s.seq, actor: a}
	}
	s.seq++
	switch f := s.front; {
	case f == nil && len(s.buckets[s.curB&slotMask]) > 0:
		// Events wait in the cursor's own bucket, the rule on a busy machine:
		// nothing scheduled now can lead them. (leads would say so too; this
		// spares the busy path the call, and an occupied ring the look at
		// where its cursor is.)
		s.enqueue(e)
	case f == nil:
		if s.leads(at, p) {
			s.front = e
		} else {
			s.push(e)
		}
	case before(at, p, f):
		// e overtakes the front event, which still precedes everything
		// queued and joins it.
		s.front = e
		s.push(f)
	default:
		s.push(e)
	}
	return e
}

// before reports whether a new event for (at, p) fires before e: its
// sequence number is the newest there is, so a tie goes to e.
func before(at Time, p Priority, e *Event) bool {
	return at < e.time || at == e.time && p < e.prio
}

// leads reports whether an event scheduled now for (at, p) would fire before
// everything in the ring and the overflow heap. Against the ring it compares
// bucket numbers only — the event must fall in a bucket before the first
// occupied one, and the heap lies past every ring bucket — so the test costs
// a bitmap lookup, not a look inside a bucket; an event it turns away is
// queued as usual.
func (s *Scheduler) leads(at Time, p Priority) bool {
	if s.ringN == 0 {
		return len(s.overflow) == 0 || before(at, p, s.overflow[0])
	}
	cur := int(s.curB & slotMask)
	return at>>s.shift-s.curB < int64((s.firstSlot(cur)-cur)&slotMask)
}

// ScheduleFunc is Schedule for a plain function.
func (s *Scheduler) ScheduleFunc(at Time, p Priority, f func(now Time)) *Event {
	return s.Schedule(at, p, ActorFunc(f))
}

// ScheduleStop enqueues the stop event: once it is reached, Run returns.
// This is the DE simulation's termination mechanism (paper Fig. 5b).
func (s *Scheduler) ScheduleStop(at Time) *Event {
	e := s.Schedule(at, PrioStop, nil)
	e.stop = true
	return e
}

// Stop halts the simulation after the event currently being processed.
func (s *Scheduler) Stop() { s.stopped = true }

// Stopped reports whether the stop event has been reached or Stop called.
func (s *Scheduler) Stopped() bool { return s.stopped }

// Cancel marks e as canceled; it is dropped lazily (at once if it is the
// front event). When canceled events accumulate past half the queue the
// structure is compacted, so a cancel-heavy workload keeps Pending()
// proportional to the live events.
func (s *Scheduler) Cancel(e *Event) {
	if e == nil || e.canceled {
		return
	}
	e.canceled = true
	if e == s.front {
		s.front = nil
		s.recycle(e)
		return
	}
	s.canceled++
	if s.canceled > compactMin && s.canceled*2 > s.Pending() {
		s.compact()
	}
}

// Step processes the single next event. It returns false when the event
// list is empty or the simulation has stopped.
func (s *Scheduler) Step() bool {
	if s.stopped {
		return false
	}
	e := s.front
	if e != nil {
		s.front = nil
	} else {
		if e = s.next(); e == nil {
			return false
		}
		s.take()
	}
	s.now = e.time
	if e.stop {
		s.stopped = true
		s.recycle(e)
		return false
	}
	actor := e.actor
	s.recycle(e)
	s.Executed++
	actor.Notify(s.now)
	return true
}

// Run processes events until the stop event, Stop, or an empty list.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunUntil processes events with time <= deadline.
func (s *Scheduler) RunUntil(deadline Time) {
	for !s.stopped {
		e := s.peek()
		if e == nil {
			return
		}
		if e.time > deadline {
			if s.now < deadline {
				s.now = deadline
			}
			return
		}
		if !s.Step() {
			return
		}
	}
}

// less orders events by (time, priority, sequence).
func less(a, b *Event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

// compare is less for slices.SortFunc; no two events are equal.
func compare(a, b *Event) int {
	if less(a, b) {
		return -1
	}
	return 1
}

// --- calendar ring ---

// firstSlot returns the first occupied slot in ring order starting at slot
// from. The ring must hold an event.
func (s *Scheduler) firstSlot(from int) int {
	slot := s.occ.Next(from)
	if slot < 0 {
		slot = s.occ.Next(0)
	}
	return slot
}

// push queues e, in the ring if its bucket is inside the window.
func (s *Scheduler) push(e *Event) {
	if s.ringN == 0 {
		// Nothing holds the cursor in place, and it may be anywhere: behind
		// now when the front register carried time forward on its own, ahead
		// of it when the last buckets it visited held only canceled events.
		// Put it at now, so that an event a few cycles out lands in the ring.
		s.curB = s.now >> s.shift
		s.migrate()
	}
	s.enqueue(e)
}

// enqueue is push for a ring that holds an event, and so a cursor in place.
func (s *Scheduler) enqueue(e *Event) {
	b := e.time >> s.shift
	if b-s.curB >= numBuckets {
		s.heapPush(e)
		return
	}
	buckets := s.buckets
	slot := int(b & slotMask)
	if len(buckets[slot]) == 0 {
		s.occ.Set(slot)
	}
	if b == s.curB && s.sorted {
		// Keep the cursor bucket's unconsumed tail sorted.
		bk := buckets[slot]
		lo, hi := s.head, len(bk)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if less(bk[mid], e) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		bk = append(bk, nil)
		copy(bk[lo+1:], bk[lo:])
		bk[lo] = e
		buckets[slot] = bk
	} else {
		buckets[slot] = append(buckets[slot], e)
	}
	s.ringN++
}

// next moves the cursor to the earliest queued event and returns it without
// removing it, or nil when ring and heap are empty. Canceled events are
// dropped along the way. Only Step calls it, with the front register empty
// and about to pop what it returns: that is what keeps the cursor from
// running ahead of now.
func (s *Scheduler) next() *Event {
	for {
		if s.ringN == 0 {
			if len(s.overflow) == 0 {
				return nil
			}
			// Jump the cursor straight to the earliest overflow event.
			s.curB = s.overflow[0].time >> s.shift
			s.migrate()
			continue
		}
		cur := int(s.curB & slotMask)
		bk := s.buckets[cur]
		if len(bk) == 0 {
			// The cursor bucket is spent (take left it empty and unsorted):
			// jump to the next occupied one. Every overflow event lies past
			// the old window, hence past this bucket, so migrating after the
			// jump cannot put anything at or before it.
			slot := s.firstSlot(cur)
			s.curB += int64((slot - cur) & slotMask)
			s.migrate()
			bk = s.buckets[slot]
		}
		if !s.sorted {
			if len(bk)-s.head > 1 {
				slices.SortFunc(bk[s.head:], compare)
			}
			s.sorted = true
		}
		e := bk[s.head]
		if !e.canceled {
			return e
		}
		s.take()
		s.canceled--
		s.recycle(e)
	}
}

// take removes the event the cursor points at (the one next returned). A
// bucket that gives up its last event is reset and leaves the occupancy map.
func (s *Scheduler) take() {
	slot := int(s.curB & slotMask)
	bk := s.buckets[slot]
	bk[s.head] = nil
	s.head++
	s.ringN--
	if s.head == len(bk) {
		s.buckets[slot] = bk[:0]
		s.head, s.sorted = 0, false
		s.occ.Clear(slot)
	}
}

// peek returns the earliest live event without removing it, or nil when
// there is none. It changes nothing: a peek that moved the cursor to what it
// found would leave it ahead of now, and the next nearby push behind it.
func (s *Scheduler) peek() *Event {
	if s.front != nil {
		return s.front
	}
	if s.ringN > 0 {
		// Occupied buckets in ring order from the cursor — slots cur and up,
		// then the wrapped ones below it; past the first only when a bucket
		// holds nothing but canceled events.
		cur := int(s.curB & slotMask)
		for _, r := range [2][2]int{{cur, numBuckets}, {0, cur}} {
			for slot := s.occ.Next(r[0]); slot >= 0 && slot < r[1]; slot = s.occ.Next(slot + 1) {
				if e := earliest(s.buckets[slot]); e != nil {
					return e
				}
			}
		}
	}
	if len(s.overflow) > 0 && !s.overflow[0].canceled {
		return s.overflow[0]
	}
	return earliest(s.overflow)
}

// earliest returns the first live event of an unsorted list in firing order.
func earliest(list []*Event) (best *Event) {
	for _, e := range list {
		if e != nil && !e.canceled && (best == nil || less(e, best)) {
			best = e
		}
	}
	return best
}

// migrate pulls overflow events that now fall inside the ring window. It
// runs whenever the cursor has moved. Canceled events are dropped here, not
// moved: one may lie behind now (RunUntil steps over them), where the ring
// has no slot for it.
func (s *Scheduler) migrate() {
	for len(s.overflow) > 0 && s.overflow[0].time>>s.shift-s.curB < numBuckets {
		e := s.heapPop()
		if e.canceled {
			s.canceled--
			s.recycle(e)
			continue
		}
		slot := int((e.time >> s.shift) & slotMask)
		s.buckets[slot] = append(s.buckets[slot], e)
		s.occ.Set(slot)
		s.ringN++
	}
}

// compact rebuilds ring and heap without their canceled events.
func (s *Scheduler) compact() {
	live := make([]*Event, 0, s.Pending())
	keep := func(e *Event) {
		if e.canceled {
			s.recycle(e)
		} else {
			live = append(live, e)
		}
	}
	for slot := s.occ.Next(0); slot >= 0; slot = s.occ.Next(slot + 1) {
		bk := s.buckets[slot]
		for i, e := range bk {
			if e != nil {
				keep(e)
			}
			bk[i] = nil
		}
		s.buckets[slot] = bk[:0]
		s.occ.Clear(slot)
	}
	for _, e := range s.overflow {
		keep(e)
	}
	s.overflow = s.overflow[:0]
	s.ringN, s.canceled = 0, 0
	s.head, s.sorted = 0, false
	for _, e := range live {
		s.push(e) // the first push puts the cursor at now
	}
}

func (s *Scheduler) recycle(e *Event) {
	if len(s.free) < maxFree {
		e.actor = nil
		s.free = append(s.free, e)
	}
}

// --- overflow heap (4-ary: shallower than binary, which measurably helps
// the pop-heavy migration path) ---

const heapArity = 4

func (s *Scheduler) heapPush(e *Event) {
	s.overflow = append(s.overflow, e)
	i := len(s.overflow) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !less(s.overflow[i], s.overflow[parent]) {
			break
		}
		s.overflow[i], s.overflow[parent] = s.overflow[parent], s.overflow[i]
		i = parent
	}
}

func (s *Scheduler) heapPop() *Event {
	top := s.overflow[0]
	last := len(s.overflow) - 1
	s.overflow[0] = s.overflow[last]
	s.overflow[last] = nil
	s.overflow = s.overflow[:last]
	n := len(s.overflow)
	i := 0
	for {
		min := i
		first := i*heapArity + 1
		for c := first; c < first+heapArity && c < n; c++ {
			if less(s.overflow[c], s.overflow[min]) {
				min = c
			}
		}
		if min == i {
			break
		}
		s.overflow[i], s.overflow[min] = s.overflow[min], s.overflow[i]
		i = min
	}
	return top
}
