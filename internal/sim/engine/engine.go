// Package engine implements the discrete-event simulation core of XMTSim
// (paper §III-C): an event list ordered by time and priority, actors that
// are notified via callbacks when their events come due, ports that pass
// instruction/data packages between cycle-accurate components in the second
// phase of a clock cycle, macro-actors that iterate many components per
// event (the optimization that beats per-component scheduling past the
// ~800-events-per-cycle threshold the paper measured), and independently
// clocked domains whose frequencies can be changed — or gated off — at
// runtime by activity plug-ins.
//
// The event list is a bucketed calendar queue: near-future events live in a
// ring of fixed-width time buckets (sorted lazily when the cursor reaches
// them), far-future events overflow into a 4-ary min-heap and migrate into
// the ring as the cursor advances. Event structs are pooled. Both choices
// target the DE main loop's hot path: pops are amortized O(1) for the
// clock-edge-aligned traffic a cycle-accurate simulator generates, and the
// per-event allocation disappears.
//
// A discrete-time (DT) main loop over the same component interface is
// provided solely to reproduce the paper's Fig. 5 / §III-D comparison.
package engine

import (
	"fmt"
	"math"
	"slices"
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

	// Calendar ring: slot i of buckets holds the events of absolute
	// bucket number b ≡ i (mod numBuckets) for the window
	// [curB, curB+numBuckets). Only the cursor bucket (curB) is kept
	// sorted; head is its consumed prefix (consumed slots are nil).
	width   Time // bucket width in ticks
	buckets [][]*Event
	curB    int64 // absolute bucket number under the cursor
	head    int
	sorted  bool
	ringN   int // events in the ring, including canceled ones

	overflow []*Event // 4-ary min-heap of events past the ring horizon
	canceled int      // canceled events still queued anywhere
	free     []*Event // event pool
}

// New returns an empty scheduler at time 0 with a one-tick bucket width.
func New() *Scheduler {
	return &Scheduler{width: 1}
}

// SetBucketWidth tunes the calendar-queue bucket width, typically to the
// GCD of the clock-domain periods so one bucket holds exactly the events
// of one edge. It may only be called while no events are pending.
func (s *Scheduler) SetBucketWidth(w Time) {
	if w <= 0 {
		panic(fmt.Sprintf("engine: bucket width %d", w))
	}
	if s.Pending() != 0 {
		panic("engine: SetBucketWidth with pending events")
	}
	s.width = w
	s.curB = s.now / w
	s.head, s.sorted = 0, false
}

// Now returns the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// NextTime peeks at the earliest pending event and returns its time without
// removing it (MaxTime when the queue is empty). The bounded-lookahead
// window uses it to find how far the cluster domain can run before any
// other component has an event due.
func (s *Scheduler) NextTime() Time {
	e := s.next()
	if e == nil {
		return MaxTime
	}
	return e.time
}

// AdvanceTo moves the current time forward to t without processing events.
// It exists for one narrow purpose: when a multi-cycle lookahead window
// stops the simulation mid-window (halt, failure, checkpoint trap), the
// stopping cycle's edge lies past the window-entry event time that Now()
// reports. The committing component advances the clock to the cycle it
// actually stopped at so Result.Cycles/Ticks match a single-cycle run.
// Only valid when the simulation is stopping: events between now and t
// would otherwise fire late.
func (s *Scheduler) AdvanceTo(t Time) {
	if t > s.now {
		s.now = t
	}
}

// Pending returns the number of events in the list (including canceled
// events not yet dropped; compaction keeps that share bounded).
func (s *Scheduler) Pending() int { return s.ringN + len(s.overflow) }

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
	s.push(e)
	return e
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

// Cancel marks e as canceled; it is dropped lazily. When canceled events
// accumulate past half the queue the structure is compacted, so a
// cancel-heavy workload keeps Pending() proportional to the live events.
func (s *Scheduler) Cancel(e *Event) {
	if e == nil || e.canceled {
		return
	}
	e.canceled = true
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
	e := s.next()
	if e == nil {
		return false
	}
	s.take()
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
	for {
		if s.stopped {
			return
		}
		e := s.next()
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
func (s *Scheduler) less(a, b *Event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

// --- calendar ring ---

func (s *Scheduler) ring() [][]*Event {
	if s.buckets == nil {
		s.buckets = make([][]*Event, numBuckets)
	}
	return s.buckets
}

func (s *Scheduler) push(e *Event) {
	b := e.time / s.width
	if b < s.curB {
		// A schedule landed behind the cursor: RunUntil parked the cursor
		// ahead of now (advancing over empty buckets while peeking).
		s.rewind(b)
	}
	if b-s.curB >= numBuckets {
		s.heapPush(e)
		return
	}
	buckets := s.ring()
	slot := int(b & (numBuckets - 1))
	if b == s.curB && s.sorted {
		// Keep the cursor bucket's unconsumed tail sorted.
		bk := buckets[slot]
		lo, hi := s.head, len(bk)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if s.less(bk[mid], e) {
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

// rewind moves the cursor back to bucket b. Ring events whose bucket would
// fall outside the new window spill into the overflow heap; events already
// consumed from the old cursor bucket are physically removed first so they
// can never refire.
func (s *Scheduler) rewind(b int64) {
	if s.buckets != nil {
		if s.head > 0 {
			slot := int(s.curB & (numBuckets - 1))
			bk := s.buckets[slot]
			n := copy(bk, bk[s.head:])
			for i := n; i < len(bk); i++ {
				bk[i] = nil
			}
			s.buckets[slot] = bk[:n]
		}
		if s.ringN > 0 {
			for slot, bk := range s.buckets {
				kept := bk[:0]
				for _, e := range bk {
					if e == nil {
						continue
					}
					if e.time/s.width-b >= numBuckets {
						s.heapPush(e)
						s.ringN--
					} else {
						kept = append(kept, e)
					}
				}
				for i := len(kept); i < len(bk); i++ {
					bk[i] = nil
				}
				s.buckets[slot] = kept
			}
		}
	}
	s.curB = b
	s.head, s.sorted = 0, false
}

// next positions the cursor at the earliest pending event and returns it
// without removing it, or nil when the queue is empty. Canceled events are
// dropped along the way.
func (s *Scheduler) next() *Event {
	for {
		if s.ringN == 0 {
			if len(s.overflow) == 0 {
				return nil
			}
			// Jump the cursor straight to the earliest overflow event.
			if s.buckets != nil {
				slot := int(s.curB & (numBuckets - 1))
				bk := s.buckets[slot]
				for i := range bk {
					bk[i] = nil
				}
				s.buckets[slot] = bk[:0]
			}
			s.curB = s.overflow[0].time / s.width
			s.head, s.sorted = 0, false
			s.migrate()
			continue
		}
		slot := int(s.curB & (numBuckets - 1))
		bk := s.buckets[slot]
		if s.head >= len(bk) {
			for i := range bk {
				bk[i] = nil
			}
			s.buckets[slot] = bk[:0]
			s.head, s.sorted = 0, false
			s.curB++
			s.migrate()
			continue
		}
		if !s.sorted {
			if len(bk)-s.head > 1 {
				slices.SortFunc(bk[s.head:], func(a, b *Event) int {
					if s.less(a, b) {
						return -1
					}
					return 1
				})
			}
			s.sorted = true
		}
		e := bk[s.head]
		if e.canceled {
			bk[s.head] = nil
			s.head++
			s.ringN--
			s.canceled--
			s.recycle(e)
			continue
		}
		return e
	}
}

// take removes the event the cursor points at (the one next returned).
func (s *Scheduler) take() {
	slot := int(s.curB & (numBuckets - 1))
	s.buckets[slot][s.head] = nil
	s.head++
	s.ringN--
}

// migrate pulls overflow events that now fall inside the ring window. It
// runs on every cursor advance, and most runs hold one far-future event
// (stop, watchdog, sampler), so the common no-op must not divide:
// time/width - curB < numBuckets is tested as time - curB*width <
// numBuckets*width (curB*width never exceeds a pending event's time, so
// neither side can overflow).
func (s *Scheduler) migrate() {
	if len(s.overflow) == 0 {
		return
	}
	base, span := s.curB*s.width, numBuckets*s.width
	for len(s.overflow) > 0 && s.overflow[0].time-base < span {
		e := s.heapPop()
		buckets := s.ring()
		slot := int((e.time / s.width) & (numBuckets - 1))
		buckets[slot] = append(buckets[slot], e)
		s.ringN++
	}
}

// compact rebuilds the queue without its canceled events.
func (s *Scheduler) compact() {
	live := make([]*Event, 0, s.Pending())
	drop := func(e *Event) {
		if e.canceled {
			s.recycle(e)
		} else {
			live = append(live, e)
		}
	}
	if s.buckets != nil {
		for slot, bk := range s.buckets {
			for _, e := range bk {
				if e != nil {
					drop(e)
				}
			}
			for i := range bk {
				bk[i] = nil
			}
			s.buckets[slot] = bk[:0]
		}
	}
	for _, e := range s.overflow {
		drop(e)
	}
	s.overflow = s.overflow[:0]
	s.ringN = 0
	s.head, s.sorted = 0, false
	s.curB = s.now / s.width
	s.canceled = 0
	for _, e := range live {
		s.push(e)
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
		if !s.less(s.overflow[i], s.overflow[parent]) {
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
			if s.less(s.overflow[c], s.overflow[min]) {
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
