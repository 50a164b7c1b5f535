package engine

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// WindowShard is one shard of a ParallelMacroActor. Its cycle is split into
// a compute phase and a commit phase so many shards can tick concurrently
// inside one scheduler event, and one event can cover several consecutive
// cycles (a bounded-lookahead window):
//
//   - WindowTick (the compute phase) may run concurrently with other shards'
//     and must be side-effect-local: it mutates only shard-private state and
//     reads shared state, buffering every shared mutation with a per-cycle
//     mark.
//   - CommitCycle (the serial phase) replays one cycle's buffered effects.
//     Commits run on the scheduler goroutine in (cycle, shard) order after
//     every shard's compute phase has returned, so the interleaving of shared
//     effects — scheduler sequence numbers included — is the one a fully
//     serial, one-cycle-per-event simulation produces.
//
// Within a window the shard's inputs are frozen: the window driver
// guarantees no other scheduler event fires between the window's cycles
// (the span is bounded by Scheduler.NextTime), so a cycle's compute phase
// sees precisely the state it would have seen had each cycle been its own
// event. The one way freshness can still leak is through the shard's own
// deferred effects: a record that would schedule work or mutate shared
// machine state ("window-closing") truncates the window at the cycle that
// produced it.
//
// Every window, one cycle or many, runs BeginWindow, WindowTick per cycle,
// CommitCycle per cycle on every shard.
type WindowShard interface {
	// BeginWindow starts a window whose first cycle is `cycle`; snapshot
	// requests rollback capture (optimistic mode).
	BeginWindow(cycle int64, snapshot bool)
	// WindowTick runs one cycle of the window and closes its effect
	// segment. closing reports that this cycle buffered a window-closing
	// effect (or that a buffer is near capacity), so no later cycle may
	// execute in this window.
	WindowTick(cycle int64, now Time) (busy, closing bool)
	// CommitCycle replays the buffered effects of window cycle k at that
	// cycle's edge time. last marks the window's final cycle: having
	// replayed it the shard releases its window buffers, ready for the next
	// BeginWindow. (Not a call of its own: at one cycle per window it would
	// be a third of the calls.)
	CommitCycle(k int, now Time, last bool)
	// Rollback discards all window cycles, restoring the BeginWindow
	// snapshot (optimistic mode only).
	Rollback()
}

// panicValue boxes a recovered panic so values of any type fit one atomic
// pointer.
type panicValue struct{ v any }

// WorkerPool is a persistent set of helper goroutines for data-parallel
// fan-out inside a single scheduler event. The goroutines block on a channel
// between fan-outs.
type WorkerPool struct {
	n      int
	wake   chan struct{} // one token per helper per ForEach; nil until started
	exited sync.WaitGroup

	// The ForEach in flight (one at a time).
	fn    func(i int)
	count int32
	next  atomic.Int32 // the next unclaimed index
	wg    sync.WaitGroup
	pan   atomic.Pointer[panicValue]
}

// NewWorkerPool returns a pool of n workers (n <= 0 means GOMAXPROCS).
// Goroutines start lazily on first use.
func NewWorkerPool(n int) *WorkerPool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &WorkerPool{n: n}
}

// Size returns the worker count; a nil pool counts as one (serial).
func (p *WorkerPool) Size() int {
	if p == nil {
		return 1
	}
	return p.n
}

// ForEach runs fn(i) for every i in [0, n), the caller and the helpers
// claiming indices from a shared counter, and returns once all calls have
// completed; it then re-panics with the first panic any of them raised. A
// helper that wakes late finds the indices taken, so a slow wake-up costs the
// fan-out its parallelism, not its progress. A nil or single-worker pool runs
// the calls inline, in index order.
func (p *WorkerPool) ForEach(n int, fn func(i int)) {
	if p == nil || p.n <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if p.wake == nil {
		p.start()
	}
	helpers := min(p.n, n) - 1
	p.fn, p.count = fn, int32(n)
	p.next.Store(0)
	p.wg.Add(helpers)
	for range helpers {
		p.wake <- struct{}{}
	}
	p.work()
	p.wg.Wait()
	if pv := p.pan.Swap(nil); pv != nil {
		panic(pv.v)
	}
}

// work claims indices until none is left, keeping the first panic for
// ForEach to re-raise.
func (p *WorkerPool) work() {
	defer func() {
		if r := recover(); r != nil {
			p.pan.CompareAndSwap(nil, &panicValue{r})
		}
	}()
	for i := p.next.Add(1) - 1; i < p.count; i = p.next.Add(1) - 1 {
		p.fn(int(i))
	}
}

func (p *WorkerPool) start() {
	p.wake = make(chan struct{}, p.n-1)
	p.exited.Add(p.n - 1)
	for range p.n - 1 {
		go func() {
			defer p.exited.Done()
			for range p.wake {
				p.work()
				p.wg.Done()
			}
		}()
	}
}

// Close stops the helper goroutines and returns once they have exited. The
// pool restarts lazily on the next use, so Close is safe to call between
// simulation runs. Nil-safe.
func (p *WorkerPool) Close() {
	if p == nil || p.wake == nil {
		return
	}
	close(p.wake)
	p.exited.Wait()
	p.wake = nil
}

// WindowEnd says what bounded a window of the cluster domain.
type WindowEnd uint8

const (
	// EndForeignEvent: the window ran up to the next event of another
	// actor, whose effects its frozen inputs must not miss.
	EndForeignEvent WindowEnd = iota
	// EndClosingEffect: a shard buffered a window-closing effect.
	EndClosingEffect
	// EndAllQuiet: no shard had work left.
	EndAllQuiet
	// EndSpanCap: the window ran its full configured lookahead.
	EndSpanCap
	NumWindowEnds
)

func (e WindowEnd) String() string {
	return [NumWindowEnds]string{"foreign_event", "closing_effect", "all_quiet", "span_cap"}[e]
}

// WindowSpanBuckets is the number of power-of-two span buckets in
// WindowStats; the last one is open-ended.
const WindowSpanBuckets = 8

// WindowStats counts a ParallelMacroActor's windows by the cycles they
// covered and by what ended them: element [b][e] is the number of windows
// that covered 2^b..2^(b+1)-1 cycles and ended for cause e. It describes
// host scheduling, not the simulated machine — though it is the same for any
// worker count, it changes with the lookahead.
type WindowStats [WindowSpanBuckets][NumWindowEnds]uint64

func (s *WindowStats) record(cycles int, end WindowEnd) {
	b := min(bits.Len(uint(cycles))-1, WindowSpanBuckets-1)
	s[b][end]++
}

// ParallelMacroActor is a MacroActor whose shards tick concurrently on a
// WorkerPool and then commit serially in shard order. Like MacroActor it
// consumes one event per notification regardless of shard count; unlike it,
// the compute phase of that event can use several host cores, and one event
// covers up to `lookahead` consecutive cycles (a bounded-lookahead window):
// the span is capped by the next foreign scheduler event and truncated at
// the first cycle that buffers a window-closing effect, then every buffered
// effect replays in (cycle, shard) order. Workers, lookahead and mode change
// how the host gets through the cycles, never the result: the commit order,
// not the compute order, defines all shared-state interleavings.
//
// With a nil pool everything runs on the scheduler goroutine.
type ParallelMacroActor struct {
	Name  string
	sched *Scheduler
	clock *Clock
	pool  *WorkerPool
	comps []WindowShard

	lookahead  int
	optimistic bool
	rollbacks  atomic.Uint64
	stats      WindowStats

	// The window in flight, read by its workers.
	winCycle          int64
	winNow, winPeriod Time
	winSpan           int

	// Lockstep state: the window cycle being ticked and each shard's verdict
	// on it.
	lsFn    func(j int) // hoisted: no closure per cycle
	lsK     int
	lsChunk int     // shards per lsFn call
	verdict []uint8 // [chunk]: verdictBusy | verdictClosing

	// Optimistic free-run state, reused across windows.
	frFn, rbFn    func(i int)
	frReplay      int
	ends, closeAt []int
	busyHist      []bool // [comp*lookahead + k]

	scheduled bool
}

// NewParallelMacroActor creates a parallel macro-actor on the given clock
// domain. A nil pool means serial execution.
func NewParallelMacroActor(name string, sched *Scheduler, clock *Clock, pool *WorkerPool) *ParallelMacroActor {
	m := &ParallelMacroActor{Name: name, sched: sched, clock: clock, pool: pool, lookahead: 1}
	m.lsFn = m.lockstepTick
	m.frFn = m.freeRun
	m.rbFn = m.rollbackReplay
	return m
}

// Add registers a shard.
func (m *ParallelMacroActor) Add(c WindowShard) {
	m.comps = append(m.comps, c)
	m.verdict = append(m.verdict, 0)
}

// Len returns the number of shards.
func (m *ParallelMacroActor) Len() int { return len(m.comps) }

// SetLookahead configures the bounded-lookahead window: w is the maximum
// cycles one scheduler event may cover (w <= 1: every window is one cycle).
// optimistic selects the speculative mode: shards free-run the whole window
// independently — one barrier per window instead of one per cycle — and
// shards that overran the consensus window boundary roll back to their
// window-entry snapshot and replay. Results are bit-identical in every
// mode; see docs/PERF.md.
func (m *ParallelMacroActor) SetLookahead(w int, optimistic bool) {
	if w < 1 {
		w = 1
	}
	m.lookahead = w
	m.optimistic = optimistic
}

// Lookahead returns the configured window bound in cycles.
func (m *ParallelMacroActor) Lookahead() int { return m.lookahead }

// Rollbacks returns the number of shard-window rollbacks the optimistic
// mode performed (0 in the conservative mode).
func (m *ParallelMacroActor) Rollbacks() uint64 { return m.rollbacks.Load() }

// WindowStats returns the window counts so far. Scheduler goroutine only.
func (m *ParallelMacroActor) WindowStats() WindowStats { return m.stats }

// Wake ensures a notification is scheduled for the next clock edge.
// Idempotent within a cycle, like MacroActor.Wake.
func (m *ParallelMacroActor) Wake(now Time) {
	if m.scheduled {
		return
	}
	at := m.clock.NextEdge(now)
	if at == MaxTime {
		return // clock gated off; re-woken on Enable
	}
	m.scheduled = true
	m.sched.Schedule(at, PrioClock, m)
}

// Notify runs one window: the compute phase of up to windowSpan cycles on
// every shard, then the serial commit replay in (cycle, shard) order, and
// re-arms the clock edge if any shard still has work.
func (m *ParallelMacroActor) Notify(now Time) {
	m.scheduled = false
	span, foreign := m.windowSpan(now)
	m.winCycle, m.winNow, m.winPeriod, m.winSpan = m.clock.Cycle(now), now, m.clock.Period(), span
	var last int
	var busy, closing bool
	if m.optimistic && span > 1 {
		last, busy, closing = m.freeRunWindow()
	} else {
		last, busy, closing = m.lockstepWindow()
	}
	for k := 0; k <= last; k++ {
		nowK := now + Time(k)*m.winPeriod
		for _, c := range m.comps {
			c.CommitCycle(k, nowK, k == last)
		}
	}
	end := EndSpanCap
	switch {
	case closing:
		end = EndClosingEffect
	case !busy:
		end = EndAllQuiet
	case foreign:
		end = EndForeignEvent
	}
	m.stats.record(last+1, end)
	if busy {
		m.Wake(now + Time(last)*m.winPeriod)
	}
}

// windowSpan bounds the next window: no more than lookahead cycles, and
// only cycles whose edges fall strictly before the next foreign scheduler
// event (whose effects the window's frozen-input contract must not miss).
// foreign reports that the event, not the lookahead, set the bound.
func (m *ParallelMacroActor) windowSpan(now Time) (span int, foreign bool) {
	period := m.clock.Period()
	span = m.lookahead
	if span <= 1 || period <= 0 {
		return 1, false
	}
	if nt := m.sched.NextTime(); nt != MaxTime {
		if avail := (nt - now + period - 1) / period; avail < Time(span) {
			span, foreign = int(avail), true
		}
	}
	if span < 1 {
		span = 1
	}
	return span, foreign
}

const (
	verdictBusy = 1 << iota
	verdictClosing
)

// lockstepWindow runs the conservative compute phase: every shard ticks
// cycle k before any shard ticks cycle k+1 (one fan-out per cycle), so a
// window-closing effect in any shard truncates the window for all of them
// without speculation. It returns the last cycle run and the merged verdict
// on it.
func (m *ParallelMacroActor) lockstepWindow() (last int, busy, closing bool) {
	// One worker ticks every shard in a single call; several claim them one
	// by one.
	n := len(m.comps)
	m.lsChunk = max(n, 1)
	if m.pool.Size() > 1 {
		m.lsChunk = 1
	}
	chunks := (n + m.lsChunk - 1) / m.lsChunk
	for k := 0; ; k++ {
		m.lsK = k
		m.pool.ForEach(chunks, m.lsFn)
		var v uint8
		for _, cv := range m.verdict[:chunks] {
			v |= cv
		}
		busy, closing = v&verdictBusy != 0, v&verdictClosing != 0
		if !busy || closing || k+1 == m.winSpan {
			return k, busy, closing
		}
	}
}

// lockstepTick runs window cycle lsK on the j-th chunk of shards.
func (m *ParallelMacroActor) lockstepTick(j int) {
	lo := j * m.lsChunk
	cycle, now := m.winCycle+int64(m.lsK), m.winNow+Time(m.lsK)*m.winPeriod
	var v uint8
	for _, c := range m.comps[lo:min(lo+m.lsChunk, len(m.comps))] {
		if m.lsK == 0 {
			c.BeginWindow(cycle, false)
		}
		busy, closing := c.WindowTick(cycle, now)
		if busy {
			v |= verdictBusy
		}
		if closing {
			v |= verdictClosing
		}
	}
	m.verdict[j] = v
}

// freeRunWindow runs the optimistic compute phase: every shard free-runs
// the full span independently (no per-cycle barrier at all), stopping only
// at its own first window-closing cycle. The consensus window end E is the
// earliest closing cycle across shards (or the first all-quiet cycle);
// shards that ran past E roll back to their window-entry snapshot and
// deterministically replay cycles up to E before the common commit.
func (m *ParallelMacroActor) freeRunWindow() (last int, busy, closing bool) {
	n := len(m.comps)
	if len(m.ends) < n {
		m.ends = make([]int, n)
		m.closeAt = make([]int, n)
	}
	if len(m.busyHist) < n*m.lookahead {
		m.busyHist = make([]bool, n*m.lookahead)
	}
	m.pool.ForEach(n, m.frFn)

	busyAt := func(k int) bool {
		for i := 0; i < n; i++ {
			if m.busyHist[i*m.lookahead+k] {
				return true
			}
		}
		return false
	}
	e := m.winSpan - 1
	for i := 0; i < n; i++ {
		if c := m.closeAt[i]; c >= 0 && c <= e {
			e, closing = c, true
		}
	}
	for k := 0; k < e; k++ {
		if !busyAt(k) {
			e, closing = k, false
			break
		}
	}

	m.frReplay = e
	m.pool.ForEach(n, m.rbFn)
	return e, busyAt(e), closing
}

// freeRun speculatively executes shard i through the window.
func (m *ParallelMacroActor) freeRun(i int) {
	c := m.comps[i]
	c.BeginWindow(m.winCycle, true)
	base := i * m.lookahead
	end, closed := -1, -1
	for k := 0; k < m.winSpan; k++ {
		busy, closing := c.WindowTick(m.winCycle+int64(k), m.winNow+Time(k)*m.winPeriod)
		m.busyHist[base+k] = busy
		end = k
		if closing {
			closed = k
			break
		}
	}
	m.ends[i], m.closeAt[i] = end, closed
}

// rollbackReplay discards shard i's overrun past the consensus boundary
// and replays the agreed cycles from the window-entry snapshot. The replay
// is deterministic: within the window the shard's inputs are frozen, so
// re-ticking the same cycles reproduces the same buffered effects.
func (m *ParallelMacroActor) rollbackReplay(i int) {
	e := m.frReplay
	if m.ends[i] <= e {
		return
	}
	m.rollbacks.Add(1)
	c := m.comps[i]
	c.Rollback()
	base := i * m.lookahead
	for k := 0; k <= e; k++ {
		busy, _ := c.WindowTick(m.winCycle+int64(k), m.winNow+Time(k)*m.winPeriod)
		m.busyHist[base+k] = busy
	}
}
