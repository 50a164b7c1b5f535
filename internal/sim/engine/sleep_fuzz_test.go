package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// FuzzSleepUntil runs one byte-coded world twice: once with a component that
// re-arms every edge of a stall only to compare its cycle with the stall's
// end (the per-edge poll), once with the same component calling SleepUntil
// and reporting idle. The rest of the world — events that schedule children
// (zero-delay ones included, and ties on the sleeper's wake edge), cancel,
// ScheduleStop, re-base, gate and re-enable the sleeper's clock and Wake it —
// is the same script. The two runs must fire the same non-poll events in the
// same order, with the same time, actor and payload, reach the same Now()
// after every RunUntil deadline and at the end, and Executed must differ by
// exactly the polls the sleeper skipped.
//
// The first byte picks the sleeper's period and the bucket width, the second
// how many of the bytes after it are the driver's; the rest are read by the
// sleeper's running ticks. Driver operations (opcode byte mod 4, operand
// byte):
//
//	0 pay      an initial event, before the first RunUntil only: events
//	           scheduled from outside a running world are outside
//	           SleepUntil's contract
//	1 d        RunUntil(now + span(d))
//	2 d        ScheduleStop(now + span(d)), from outside the run
//	3 i        Cancel the i-th live event, from outside the run
//
// An event's payload picks its action when it fires (sleepEvent.Notify). A
// running tick of the sleeper reads one byte b: b&3 == 0 stalls b>>2&15
// cycles, 1 schedules an event with payload b and then stalls, 2 goes idle
// until some event wakes it, 3 stays busy. Events are budgeted and each
// running tick takes a byte, so every world drains.
func FuzzSleepUntil(f *testing.F) {
	const initial, runUntil, schedStop, cancel = 0, 1, 2, 3
	// Payload actions (pay%10) for hand-written seeds.
	const child0, child, tieWake, cancelEv, stopEv, setPeriod, gate, wake, ties = 1, 2, 3, 4, 5, 6, 7, 8, 9
	// A payload byte is also the initial event's time (span) and priority
	// (sleepPrios[pay>>4&3]); at makes one that fires a few periods past the
	// given one, while the sleeper stalls 15 cycles at a time (stall15).
	const stall15, stallBusy = 15 << 2, 15<<2 | 1
	at := func(periods, action byte, clock bool) byte {
		b := 2<<5 | periods
		for b%10 != action || (b>>4&1 == 1) != clock {
			b++
		}
		return b
	}
	seed := func(cfg byte, driver []byte, sleeper ...byte) {
		f.Add(append(append([]byte{cfg, byte(len(driver))}, driver...), sleeper...))
	}
	// Ties on the wake edge: PrioClock children scheduled on the sleeper's
	// stall-end edge by events firing inside the stall. An unclamped wake
	// (WakeAt) runs the sleeper ahead of them.
	seed(0, []byte{initial, at(3, tieWake, true), initial, at(9, tieWake, true)}, stall15, stall15, stall15)
	seed(1<<2|2, []byte{initial, at(5, tieWake, true), initial, at(5, tieWake, false)}, stall15, stallBusy, stall15)
	// Zero-delay children from inside Notify, and same-time ties.
	seed(1, []byte{initial, at(4, child0, true), initial, at(6, ties, false), initial, at(7, child0, false)},
		stall15, stall15, 3, stall15)
	// Cancel and ScheduleStop inside the sleep, from events and from outside.
	seed(2<<2, []byte{initial, at(3, cancelEv, true), initial, at(4, child, false), initial, at(5, stopEv, true),
		runUntil, 2<<5 | 6, cancel, 0, schedStop, 2<<5 | 9}, stall15, stallBusy, stall15)
	// RunUntil deadlines inside the sleep.
	seed(3<<2|1, []byte{initial, at(8, child, true), runUntil, 2<<5 | 3, runUntil, 1<<5 | 1, runUntil, 0,
		runUntil, 2<<5 | 7, runUntil, 4 << 5}, stall15, stall15, 2, stall15)
	// SetPeriod, Disable and Enable of the sleeper's clock during a stall,
	// and a Wake while it sleeps.
	seed(3<<2, []byte{initial, at(3, setPeriod, true), initial, at(6, gate, false), initial, at(8, setPeriod, false),
		initial, at(10, wake, true)}, stall15, stall15, stall15, stall15)
	rng := rand.New(rand.NewSource(33))
	for i := 0; i < 8; i++ {
		p := make([]byte, 120)
		rng.Read(p)
		f.Add(p)
	}

	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		poll := runSleepWorld(prog, false)
		sleep := runSleepWorld(prog, true)
		if len(poll.log) != len(sleep.log) {
			t.Fatalf("poll run fired %d events, sleep run %d\npoll:  %v\nsleep: %v", len(poll.log), len(sleep.log), poll.log, sleep.log)
		}
		for i := range poll.log {
			if poll.log[i] != sleep.log[i] {
				t.Fatalf("firing %d: poll run %v, sleep run %v\npoll:  %v\nsleep: %v", i, poll.log[i], sleep.log[i], poll.log, sleep.log)
			}
		}
		if !slices.Equal(poll.nows, sleep.nows) {
			t.Fatalf("Now() after each driver operation: poll run %v, sleep run %v", poll.nows, sleep.nows)
		}
		if poll.executed-poll.polls != sleep.executed-sleep.polls {
			t.Fatalf("Executed %d with %d polls against %d with %d early wakes: not the same %d events",
				poll.executed, poll.polls, sleep.executed, sleep.polls, poll.executed-poll.polls)
		}
		if sleep.polls > poll.polls {
			t.Fatalf("the sleeper woke early %d times, more than the %d polls it replaces", sleep.polls, poll.polls)
		}
	})
}

// firing is one non-poll notification: an event's, or a running tick of the
// sleeper (actor -1, payload the cycle).
type firing struct {
	at    Time
	actor int
	pay   int64
}

func (f firing) String() string { return fmt.Sprintf("%d:%d/%d", f.at, f.actor, f.pay) }

type sleepWorld struct {
	s       *Scheduler
	clock   *Clock
	ma      *MacroActor
	sleep   bool
	driver  []byte
	sleeper []byte

	stalled bool
	until   int64 // the stall ends at this cycle

	nextID int
	events int // events left to schedule
	live   []*sleepEvent

	log   []firing
	nows  []Time
	polls uint64 // stalled notifications: polls, or the sleeper's early wakes
}

type sleepEvent struct {
	w   *sleepWorld
	id  int
	pay byte
	h   *Event
}

// readByte takes the first byte of a stream (0 once it is spent).
func readByte(stream *[]byte) byte {
	if len(*stream) == 0 {
		return 0
	}
	b := (*stream)[0]
	*stream = (*stream)[1:]
	return b
}

// span turns a byte into a time offset measured in sleeper periods: ticks
// inside one period, whole periods, a stall's length, and past the
// scheduler's ring horizon.
func (w *sleepWorld) span(b byte) Time {
	p := max(w.clock.Period(), 1)
	v := Time(b & 31)
	switch b >> 5 {
	case 0:
		return 0
	case 1:
		return v % p
	case 2:
		return v * p
	case 3:
		return v*p + v%p
	case 4:
		return (16 + v) * p
	case 5:
		return numBuckets<<w.s.shift + v
	default:
		return v
	}
}

var sleepPrios = [...]Priority{prioBeforeClock, PrioClock, PrioNegotiate, PrioTransfer}

const prioBeforeClock = PrioClock - 1

func (w *sleepWorld) schedule(at Time, p Priority, pay byte) {
	if w.events == 0 {
		return
	}
	w.events--
	e := &sleepEvent{w: w, id: w.nextID, pay: pay}
	w.nextID++
	e.h = w.s.Schedule(at, p, e)
	w.live = append(w.live, e)
}

func (w *sleepWorld) cancel(i int) {
	if len(w.live) == 0 {
		return
	}
	i %= len(w.live)
	w.s.Cancel(w.live[i].h)
	w.live = slices.Delete(w.live, i, i+1)
}

// Notify fires one event: log it, then act on its payload.
func (e *sleepEvent) Notify(now Time) {
	w := e.w
	w.live = slices.DeleteFunc(w.live, func(x *sleepEvent) bool { return x == e })
	w.log = append(w.log, firing{now, e.id, int64(e.pay)})
	kid := e.pay*37 + 11 // the payload of whatever this event schedules
	prio := sleepPrios[e.pay>>4&3]
	switch e.pay % 10 {
	case 1: // a zero-delay child
		w.schedule(now, prio, kid)
	case 2:
		w.schedule(now+w.span(kid), prio, kid)
	case 3: // a tie with the sleeper's stall-end edge, or its next edge
		at := w.clock.EdgeAt(w.until)
		if at < now || at == MaxTime {
			at = w.clock.NextEdge(now)
		}
		if at != MaxTime {
			w.schedule(at, sleepPrios[e.pay>>4&1], kid)
		}
	case 4:
		w.cancel(int(e.pay >> 3))
	case 5:
		w.s.ScheduleStop(now + w.span(kid))
	case 6: // what Control.SetPeriod does: re-base, then wake everyone
		w.clock.SetPeriod(now, Time(e.pay>>4&3)+1)
		w.ma.Wake(now)
	case 7: // gate the clock off, and schedule the event that re-enables it
		w.clock.Disable(now)
		w.schedule(now+w.span(kid), prio, 60) // 60 % 10: enable
	case 8:
		w.ma.Wake(now)
	case 9: // two children on one (time, priority)
		at := now + w.span(kid)
		w.schedule(at, prio, kid)
		w.schedule(at, prio, kid+1)
	case 0:
		if e.pay == 60 {
			w.clock.Enable(now)
			w.ma.Wake(now)
		}
	}
}

// Tick is the sleeper: a stalled tick polls or sleeps, a running tick reads
// the next script byte.
func (w *sleepWorld) Tick(cycle int64, now Time) bool {
	if w.stalled {
		if cycle < w.until {
			w.polls++
			return w.stall(now)
		}
		w.stalled = false
	}
	w.log = append(w.log, firing{now, -1, cycle})
	if len(w.sleeper) == 0 {
		return false
	}
	b := readByte(&w.sleeper)
	switch b & 3 {
	case 2:
		return false
	case 3:
		return true
	case 1:
		w.schedule(now+w.span(b*13), sleepPrios[b>>6], b)
	}
	w.stalled, w.until = true, cycle+int64(b>>2&15)
	return w.stall(now)
}

// stall is where the two runs differ: report busy, or sleep and report idle.
func (w *sleepWorld) stall(now Time) bool {
	if !w.sleep {
		return true
	}
	w.ma.SleepUntil(now, w.clock.EdgeAt(w.until))
	return false
}

type sleepResult struct {
	log             []firing
	nows            []Time
	executed, polls uint64
}

func runSleepWorld(prog []byte, sleep bool) sleepResult {
	cfg, n := prog[0], 0
	if len(prog) > 1 {
		n = min(int(prog[1]), len(prog)-2)
		prog = prog[2:]
	} else {
		prog = nil
	}
	w := &sleepWorld{s: New(), sleep: sleep, driver: prog[:n], sleeper: prog[n:], events: 400}
	w.s.SetBucketWidth([]Time{1, 4, 8, 6}[cfg&3])
	w.clock = NewClock("sleeper", Time(cfg>>2&7)+1)
	w.ma = NewMacroActor("sleeper", w.s, w.clock, w)
	w.ma.Wake(0)
	started := false
	for len(w.driver) > 0 {
		op := readByte(&w.driver) % 4
		arg := readByte(&w.driver)
		switch op {
		case 0:
			if !started {
				w.schedule(w.span(arg), sleepPrios[arg>>4&3], arg)
			}
		case 1:
			started = true
			w.s.RunUntil(w.s.Now() + w.span(arg))
		case 2:
			w.s.ScheduleStop(w.s.Now() + w.span(arg))
		case 3:
			w.cancel(int(arg))
		}
		w.nows = append(w.nows, w.s.Now())
	}
	w.s.Run()
	w.nows = append(w.nows, w.s.Now())
	return sleepResult{w.log, w.nows, w.s.Executed, w.polls}
}
