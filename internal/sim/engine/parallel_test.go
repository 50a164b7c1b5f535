package engine

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkerPoolForEach(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		pool := NewWorkerPool(workers)
		var hits [100]int32
		for round := 0; round < 50; round++ {
			pool.ForEach(len(hits), func(i int) {
				atomic.AddInt32(&hits[i], 1)
			})
		}
		pool.Close()
		for i, h := range hits {
			if h != 50 {
				t.Fatalf("workers=%d: index %d ran %d times, want 50", workers, i, h)
			}
		}
	}
	// A nil pool runs inline.
	var nilPool *WorkerPool
	n := 0
	nilPool.ForEach(7, func(int) { n++ })
	if n != 7 {
		t.Fatalf("nil pool ran %d calls, want 7", n)
	}
	nilPool.Close()
}

func TestWorkerPoolPanicPropagates(t *testing.T) {
	pool := NewWorkerPool(4)
	defer pool.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("worker panic did not propagate to the caller")
		}
	}()
	pool.ForEach(64, func(i int) {
		if i == 63 {
			panic("boom")
		}
	})
}

type commitRec struct {
	cycle int64
	shard int
}

// fakeEnv is what a set of fakeShards share: how long they stay busy, the
// per-cycle tick counts the lockstep check reads, and the commit log.
type fakeEnv struct {
	n      int
	cycles int64          // every shard runs cycles 1..cycles (the first edge is cycle 1)
	ticked []atomic.Int32 // [cycle]: shards that have ticked it
	early  atomic.Int32   // ticks of cycle k+1 that ran before every shard ticked k
	reopen atomic.Int32   // BeginWindows on a shard whose last window was never closed
	log    []commitRec    // serial phase only
	errs   []string       // serial phase only
}

func newFakeEnv(n int, cycles int64) *fakeEnv {
	// Room past the end: an optimistic free-run overruns the last cycle.
	return &fakeEnv{n: n, cycles: cycles, ticked: make([]atomic.Int32, cycles+64)}
}

// fakeShard is a WindowShard whose behaviour is a function of the cycle
// alone, so every worker count, lookahead and mode must produce the same
// commit log.
type fakeShard struct {
	id       int
	env      *fakeEnv
	closeMod int64   // closes the window when (cycle+id)%closeMod == 0; 0 = never
	panicAt  int64   // cycle whose tick panics; -1 = never
	window   []int64 // cycles ticked since BeginWindow
	open     bool    // between BeginWindow and the last CommitCycle
}

func (s *fakeShard) BeginWindow(int64, bool) {
	if s.open || len(s.window) != 0 {
		s.env.reopen.Add(1) // errs belongs to the serial phase
	}
	s.open = true
}

func (s *fakeShard) WindowTick(cycle int64, now Time) (busy, closing bool) {
	if cycle == s.panicAt {
		panic(fmt.Sprintf("shard %d", s.id))
	}
	if cycle > 1 && int(s.env.ticked[cycle-1].Load()) < s.env.n {
		s.env.early.Add(1)
	}
	s.env.ticked[cycle].Add(1)
	s.window = append(s.window, cycle)
	return cycle < s.env.cycles, s.closeMod > 0 && (cycle+int64(s.id))%s.closeMod == 0
}

func (s *fakeShard) CommitCycle(k int, now Time, last bool) {
	if !s.open || k >= len(s.window) || last != (k == len(s.window)-1) {
		s.env.errs = append(s.env.errs, fmt.Sprintf("shard %d: CommitCycle(%d, last=%v) with %d cycles buffered, open=%v", s.id, k, last, len(s.window), s.open))
		return
	}
	s.env.log = append(s.env.log, commitRec{s.window[k], s.id})
	if last {
		s.window = s.window[:0]
		s.open = false
	}
}

func (s *fakeShard) Rollback() {
	for _, c := range s.window {
		s.env.ticked[c].Add(-1)
	}
	s.window = s.window[:0]
}

// fakeMachine builds an actor over n fakeShards on a clock of period 2;
// every third shard closes windows.
func fakeMachine(n, workers int, cycles int64) (*Scheduler, *ParallelMacroActor, *WorkerPool, *fakeEnv, []*fakeShard) {
	var pool *WorkerPool
	if workers > 1 {
		pool = NewWorkerPool(workers)
	}
	s := New()
	ma := NewParallelMacroActor("shards", s, NewClock("c", 2), pool)
	env := newFakeEnv(n, cycles)
	shards := make([]*fakeShard, n)
	for i := range shards {
		shards[i] = &fakeShard{id: i, env: env, panicAt: -1}
		if i%3 == 0 {
			shards[i].closeMod = 7
		}
		ma.Add(shards[i])
	}
	return s, ma, pool, env, shards
}

// checkCommitLog asserts the serial-phase contract: every shard commits
// every cycle, in (cycle, shard) order.
func checkCommitLog(t *testing.T, id string, env *fakeEnv) {
	t.Helper()
	for _, e := range env.errs {
		t.Errorf("%s: %s", id, e)
	}
	if n := env.reopen.Load(); n != 0 {
		t.Errorf("%s: %d windows begun on a shard still in one", id, n)
	}
	if want := int(env.cycles) * env.n; len(env.log) != want {
		t.Fatalf("%s: %d commits, want %d", id, len(env.log), want)
	}
	for i, r := range env.log {
		if want := (commitRec{int64(i/env.n) + 1, i % env.n}); r != want {
			t.Fatalf("%s: commit %d is %+v, want %+v", id, i, r, want)
		}
	}
}

// Whatever the worker count, lookahead and mode, the actor must tick every
// shard every cycle and commit in (cycle, shard) order — the determinism
// contract the cycle-accurate simulator builds on — and cut the run into the
// same windows for any worker count. Outside the optimistic mode no shard
// ticks cycle k+1 before every shard has ticked k.
func TestWindowCommitOrder(t *testing.T) {
	const nShards, cycles = 9, 600
	for _, lookahead := range []int{1, 3, 8} {
		for _, optimistic := range []bool{false, true} {
			var ref WindowStats
			for _, workers := range []int{1, 2, 4} {
				id := fmt.Sprintf("lookahead=%d optimistic=%v workers=%d", lookahead, optimistic, workers)
				s, ma, pool, env, _ := fakeMachine(nShards, workers, cycles)
				ma.SetLookahead(lookahead, optimistic)
				ma.Wake(0)
				s.Run()
				pool.Close()
				checkCommitLog(t, id, env)
				if n := env.early.Load(); n != 0 && !optimistic {
					t.Errorf("%s: %d ticks ran ahead of the lockstep", id, n)
				}
				ws := ma.WindowStats()
				var windows uint64
				for b := range ws {
					for _, n := range ws[b] {
						windows += n
					}
				}
				if windows != s.Executed || windows < 100 {
					t.Errorf("%s: %d windows counted, %d events executed, want at least 100", id, windows, s.Executed)
				}
				if lookahead == 1 {
					if s.Executed != cycles {
						t.Errorf("%s: %d events executed, want %d (one per cycle)", id, s.Executed, cycles)
					}
					if got := ws[0][EndForeignEvent]; got != 0 {
						t.Errorf("%s: %d one-cycle windows blame a foreign event; lookahead 1 never looks for one", id, got)
					}
				}
				if workers == 1 {
					ref = ws
				} else if ws != ref {
					t.Errorf("%s: window counts %v differ from one worker's %v", id, ws, ref)
				}
			}
		}
	}
}

// A foreign event bounds the window: every cycle whose edge falls before it
// has committed when it fires, and none at or after it has.
func TestWindowStopsAtForeignEvent(t *testing.T) {
	const nShards, cycles = 4, 40
	s, ma, _, env, shards := fakeMachine(nShards, 1, cycles)
	for _, sh := range shards {
		sh.closeMod = 0
	}
	ma.SetLookahead(16, false)
	// Clock period 2: the edges of cycles 1..10 (t = 2, 4, …, 20) fall before
	// time 21.
	var seen int
	s.Schedule(21, PrioTransfer, ActorFunc(func(Time) { seen = len(env.log) }))
	ma.Wake(0)
	s.Run()
	checkCommitLog(t, "foreign", env)
	if want := 10 * nShards; seen != want {
		t.Errorf("foreign event at t=21 saw %d commits, want %d (cycles 1..10)", seen, want)
	}
	ws := ma.WindowStats()
	if got := ws[3][EndForeignEvent]; got != 1 {
		t.Errorf("want one 8..15-cycle window ended by the foreign event, got %d: %v", got, ws)
	}
}

// A panic in a shard's tick must come out of Notify on the scheduler
// goroutine, whichever worker ran the shard, and leave the pool usable and
// no worker waiting for the next cycle of a window that will never have one.
func TestLockstepPanicPropagates(t *testing.T) {
	for _, workers := range []int{2, 4} {
		for _, bad := range []int{0, 3} {
			id := fmt.Sprintf("workers=%d shard=%d", workers, bad)
			before := runtime.NumGoroutine()
			s, ma, pool, _, shards := fakeMachine(4, workers, 100)
			for _, sh := range shards {
				sh.closeMod = 0
			}
			shards[bad].panicAt = 3 // its third tick, mid-window
			ma.SetLookahead(8, false)
			done := make(chan any, 1)
			go func() {
				defer func() { done <- recover() }()
				ma.Wake(0)
				s.Run()
			}()
			select {
			case r := <-done:
				if want := fmt.Sprintf("shard %d", bad); r != want {
					t.Errorf("%s: recovered %v, want %q", id, r, want)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s: the run did not return within 5 s of a shard panicking", id)
			}
			var ran atomic.Int32
			pool.ForEach(16, func(int) { ran.Add(1) })
			if ran.Load() != 16 {
				t.Errorf("%s: pool ran %d of 16 calls after the panic", id, ran.Load())
			}
			pool.Close()
			// The runner goroutine above may still be on its way out.
			for i := 0; runtime.NumGoroutine() > before && i < 200; i++ {
				time.Sleep(5 * time.Millisecond)
			}
			if got := runtime.NumGoroutine(); got > before {
				t.Errorf("%s: %d goroutines after Close, %d before the run", id, got, before)
			}
		}
	}
}
