package engine

import (
	"math/rand"
	"slices"
	"testing"
)

// A cancel-heavy workload (e.g. timeouts that almost always get canceled)
// must not grow the event list without bound: compaction drops canceled
// events once they outnumber live ones.
func TestCancelHeavyPendingBounded(t *testing.T) {
	s := New()
	noop := ActorFunc(func(Time) {})
	maxPending := 0
	live := 64
	var timeouts []*Event
	for round := 0; round < 200; round++ {
		for i := 0; i < live; i++ {
			timeouts = append(timeouts, s.Schedule(Time(round*100+1000), PrioTransfer, noop))
		}
		for _, e := range timeouts {
			s.Cancel(e)
		}
		timeouts = timeouts[:0]
		if p := s.Pending(); p > maxPending {
			maxPending = p
		}
	}
	// 200 rounds × 64 canceled events would be 12800 pending without
	// compaction; with it, pending stays within a small multiple of the
	// compaction floor.
	if maxPending > 4*compactMin {
		t.Fatalf("cancel-heavy workload grew Pending() to %d", maxPending)
	}
	if s.Pending() != 0 && maxPending == 0 {
		t.Fatal("no events were ever pending")
	}
}

// Events beyond the calendar ring's horizon overflow into the heap and
// must still fire in order, including when they migrate back into the ring.
func TestOverflowHorizonOrdering(t *testing.T) {
	s := New()
	span := Time(numBuckets) * 10
	var got []Time
	rec := func(now Time) { got = append(got, now) }
	// Descending far-future times, then near times.
	for i := 20; i > 0; i-- {
		s.ScheduleFunc(Time(i)*span, PrioTransfer, rec)
	}
	for i := 5; i > 0; i-- {
		s.ScheduleFunc(Time(i), PrioTransfer, rec)
	}
	s.Run()
	if len(got) != 25 {
		t.Fatalf("got %d events, want 25", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("out of order at %d: %v", i, got)
		}
	}
}

// An event one tick inside, exactly at, and one tick past the ring's horizon
// must each fire at its own time — the one at the horizon migrates as soon as
// the cursor's advance brings the horizon up to it — for unit and wide
// buckets, from a cursor at zero and from one left mid-run.
func TestMigrateHorizonBoundary(t *testing.T) {
	for _, width := range []Time{1, 8} {
		for _, start := range []Time{0, 3*width + 1, Time(numBuckets)*width*5 + 2} {
			s := New()
			s.SetBucketWidth(width)
			var got []Time
			rec := func(now Time) { got = append(got, now) }
			s.ScheduleFunc(start, PrioTransfer, rec)
			s.Run() // leaves now, and with it the next push's cursor, on start's bucket
			horizon := (start/width + numBuckets) * width
			want := []Time{start, start + 1, horizon - 1, horizon, horizon + 1, horizon + Time(numBuckets)*width}
			for _, at := range []Time{want[5], want[4], want[3], want[2], want[1]} {
				s.ScheduleFunc(at, PrioTransfer, rec)
			}
			if n := len(s.overflow); n != 3 {
				t.Fatalf("width=%d start=%d: %d events overflowed, want 3 (horizon and beyond)", width, start, n)
			}
			s.Run()
			if !slices.Equal(got, want) {
				t.Fatalf("width=%d start=%d: fired %v, want %v", width, start, got, want)
			}
		}
	}
}

// Pop order must equal the (time, priority, sequence) sort of what was
// pushed, whatever mix of near, horizon-straddling and far-future times,
// cancels and mid-run schedules the calendar sees.
func TestPopOrderMatchesSortedReference(t *testing.T) {
	type key struct {
		at   Time
		prio Priority
		seq  int
	}
	rng := rand.New(rand.NewSource(15))
	for round := 0; round < 200; round++ {
		s := New()
		width := Time(1 + rng.Intn(9))
		s.SetBucketWidth(width)
		span := Time(numBuckets) * width
		var want, got []key
		seq := 0
		add := func(base Time) {
			var at Time
			switch rng.Intn(4) {
			case 0:
				at = base + Time(rng.Intn(int(2*width)))
			case 1:
				at = base + span - width + Time(rng.Intn(int(2*width)+1)) // around the horizon
			case 2:
				at = base + Time(rng.Int63n(int64(3*span)))
			default:
				at = base + Time(rng.Int63n(int64(40*span)))
			}
			k := key{at, Priority(rng.Intn(3) * 100), seq}
			seq++
			e := s.Schedule(at, k.prio, ActorFunc(func(now Time) {
				if now != k.at {
					t.Fatalf("event for t=%d fired at %d", k.at, now)
				}
				got = append(got, k)
			}))
			if rng.Intn(8) == 0 {
				s.Cancel(e)
				return
			}
			want = append(want, k)
		}
		for i := 0; i < 60; i++ {
			add(0)
		}
		for steps := 0; s.Step(); steps++ {
			if steps%7 == 0 && seq < 120 {
				add(s.Now() + 1) // schedules arriving while the cursor moves
			}
		}
		slices.SortStableFunc(want, func(a, b key) int {
			if a.at != b.at {
				return int(a.at - b.at)
			}
			if a.prio != b.prio {
				return int(a.prio - b.prio)
			}
			return a.seq - b.seq
		})
		if !slices.Equal(got, want) {
			t.Fatalf("round %d (width %d): pop order diverges from the sorted reference\n got %v\nwant %v", round, width, got, want)
		}
	}
}

// RunUntil and NextTime look ahead for the next event — here across the whole
// ring to one in the overflow heap — and must leave the cursor where it was:
// a schedule between now and what they found has to land in front of it, not
// be lost or fire out of order.
func TestScheduleBehindParkedCursor(t *testing.T) {
	s := New()
	var got []Time
	rec := func(now Time) { got = append(got, now) }
	s.ScheduleFunc(10, PrioTransfer, rec)
	far := Time(numBuckets) * 3 // beyond the ring: parks the cursor after a long advance
	s.ScheduleFunc(far, PrioTransfer, rec)
	s.RunUntil(500)
	if s.Now() != 500 {
		t.Fatalf("now = %d, want 500", s.Now())
	}
	if s.NextTime() != far || s.curB > 500 {
		t.Fatalf("NextTime() = %d with the cursor at bucket %d; want %d and a cursor not past now", s.NextTime(), s.curB, far)
	}
	s.ScheduleFunc(600, PrioTransfer, rec)
	s.ScheduleFunc(501, PrioTransfer, rec)
	s.Run()
	want := []Time{10, 501, 600, far}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

func TestSetBucketWidth(t *testing.T) {
	s := New()
	s.SetBucketWidth(8)
	var got []Time
	rec := func(now Time) { got = append(got, now) }
	// Unaligned times within and across buckets still order correctly.
	for _, at := range []Time{17, 3, 8, 9, 4099, 23, 16} {
		s.ScheduleFunc(at, PrioTransfer, rec)
	}
	s.Run()
	want := []Time{3, 8, 9, 16, 17, 23, 4099}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}

	s2 := New()
	s2.ScheduleFunc(1, PrioTransfer, func(Time) {})
	defer func() {
		if recover() == nil {
			t.Fatal("SetBucketWidth with pending events did not panic")
		}
	}()
	s2.SetBucketWidth(8)
}

// Recycled events must behave like fresh ones: pooling may not leak
// canceled/stop flags or stale ordering state across reuses.
func TestEventPoolReuse(t *testing.T) {
	s := New()
	fired := 0
	for i := 0; i < 1000; i++ {
		e := s.Schedule(Time(i), PrioTransfer, ActorFunc(func(Time) { fired++ }))
		if i%3 == 0 {
			s.Cancel(e)
		}
		s.Step()
	}
	if want := 1000 - 334; fired != want {
		t.Fatalf("fired %d, want %d", fired, want)
	}
}
