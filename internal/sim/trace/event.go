package trace

import (
	"fmt"
	"io"

	"xmtgo/internal/isa"
	"xmtgo/internal/sim/engine"
)

// This file implements the structured event tracer: a low-overhead stream
// of typed, timestamped events the cycle-accurate simulator emits while it
// runs, exported as Chrome trace-event JSON loadable in Perfetto or
// chrome://tracing (docs/OBSERVABILITY.md).
//
// Determinism contract: events produced inside the parallel cluster compute
// phase go into per-cluster Rings and are drained into the shared EventLog
// at outbox-commit time, in cluster-id order — the same serialization point
// the outbox uses for every other shared effect. Events produced on the
// scheduler goroutine (master issue, package deliveries, spawn/join, cache
// service) append directly. Either way the final event order is a pure
// function of the simulated execution, so the exported JSON is bit-identical
// for any Config.HostWorkers.

// EventKind is the type of one structured trace event.
type EventKind uint8

const (
	// EvInstr is one issued instruction (a span of one issue cycle).
	EvInstr EventKind = iota
	// EvMemWait is a span a context spent blocked on the memory system.
	EvMemWait
	// EvPSWait is a span a context spent blocked on the prefix-sum unit.
	EvPSWait
	// EvSpawn is a spawn section: broadcast to join completion, on the
	// master track. Arg is the number of virtual threads.
	EvSpawn
	// EvQueueDepth samples a cache module's service-queue depth (counter
	// event; Ctx is the module, Arg the depth).
	EvQueueDepth
	// EvFault is one injected fault (instant event; Arg is the
	// fault.Kind, Ctx the target TCU or -1).
	EvFault
	// EvDecommission marks a TCU's permanent removal (instant event on the
	// TCU's track).
	EvDecommission
	// EvRedispatch marks an orphaned virtual thread resuming on a
	// surviving TCU (instant event on the adopter's track; Arg is the
	// re-dispatch latency in ticks).
	EvRedispatch
	// EvRace marks one confirmed xmtsan race report (instant event on the
	// writer's track; Ctx is the writing TCU, PC the write's source line,
	// Arg the conflicting access's source line).
	EvRace
)

// String returns the Perfetto-visible name of the kind.
func (k EventKind) String() string {
	switch k {
	case EvInstr:
		return "instr"
	case EvMemWait:
		return "mem-wait"
	case EvPSWait:
		return "ps-wait"
	case EvSpawn:
		return "spawn"
	case EvQueueDepth:
		return "cacheq"
	case EvFault:
		return "fault"
	case EvDecommission:
		return "decommission"
	case EvRedispatch:
		return "redispatch"
	case EvRace:
		return "race"
	}
	return "?"
}

// Event is one structured trace event. The struct is deliberately flat and
// small: rings hold thousands of these per tick.
type Event struct {
	TS   engine.Time
	Dur  engine.Time
	Kind EventKind
	Op   isa.Op
	Ctx  int32 // global TCU id; -1 = master; EvQueueDepth: cache module
	PC   int32
	Arg  int64 // EvInstr: source line; EvSpawn: vthreads; EvQueueDepth: depth
}

// Ring is a bounded per-cluster event buffer filled during the parallel
// compute phase and drained at outbox commit. On overflow the newest events
// are dropped (and counted): dropping deterministically beats blocking the
// compute phase, and the drop count makes truncation visible.
type Ring struct {
	buf     []Event
	dropped uint64
}

// NewRing returns a ring holding up to capacity events between drains.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Ring{buf: make([]Event, 0, capacity)}
}

// Emit appends one event; when the ring is full the event is dropped and
// counted.
func (r *Ring) Emit(e Event) {
	if len(r.buf) == cap(r.buf) {
		r.dropped++
		return
	}
	r.buf = append(r.buf, e)
}

// Len returns the buffered event count.
func (r *Ring) Len() int { return len(r.buf) }

// Cap returns the ring's capacity (events held between drains).
func (r *Ring) Cap() int { return cap(r.buf) }

// Truncate discards every event past index n (optimistic-rollback support:
// a cluster that overran its lookahead window rewinds its ring to the
// window-entry length).
func (r *Ring) Truncate(n int) {
	if n < len(r.buf) {
		r.buf = r.buf[:n]
	}
}

// EventLog collects the deterministic, committed event stream of one run.
type EventLog struct {
	Events  []Event
	Dropped uint64
}

// NewEventLog returns an empty log.
func NewEventLog() *EventLog { return &EventLog{} }

// Emit appends one event directly (serial contexts only: master issue,
// deliveries, spawn unit, cache service — anything on the scheduler
// goroutine).
func (l *EventLog) Emit(e Event) { l.Events = append(l.Events, e) }

// Drain moves a ring's events into the log and resets the ring. Called at
// outbox commit, serially, in cluster-id order.
func (l *EventLog) Drain(r *Ring) {
	l.Events = append(l.Events, r.buf...)
	l.Dropped += r.dropped
	r.buf = r.buf[:0]
	r.dropped = 0
}

// DrainRange appends the ring's events in [lo, hi) to the log without
// resetting the ring. The bounded-lookahead engine drains one window
// cycle's segment at a time (in (cycle, cluster) order) and resets the
// ring once per window via ResetRing.
func (l *EventLog) DrainRange(r *Ring, lo, hi int) {
	l.Events = append(l.Events, r.buf[lo:hi]...)
}

// ResetRing clears a fully drained ring, folding its overflow-drop count
// into the log.
func (l *EventLog) ResetRing(r *Ring) {
	l.Dropped += r.dropped
	r.buf = r.buf[:0]
	r.dropped = 0
}

// ChromeMeta maps machine shape onto Chrome trace pids/tids.
type ChromeMeta struct {
	Clusters       int
	TCUsPerCluster int
}

// pidTid maps a context id to a Chrome (pid, tid) pair: the master is
// pid 0 / tid 0, cluster c is pid c+1 with one tid per member TCU.
func (m ChromeMeta) pidTid(ctx int32) (int, int) {
	if ctx < 0 || m.TCUsPerCluster <= 0 {
		return 0, 0
	}
	return int(ctx)/m.TCUsPerCluster + 1, int(ctx) % m.TCUsPerCluster
}

// WriteChrome renders the log as Chrome trace-event JSON ("traceEvents"
// array format). Timestamps are simulator ticks interpreted as
// microseconds; durations likewise. The output is byte-deterministic:
// events are written in log order with fixed formatting, so traces from
// different host worker counts compare equal byte-for-byte.
func (l *EventLog) WriteChrome(w io.Writer, meta ChromeMeta) error {
	enc := NewChromeEncoder(w)

	// Metadata: name the master and cluster tracks.
	enc.Event(`{"name":"process_name","ph":"M","pid":0,"args":{"name":"master+memory"}}`)
	enc.Event(`{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"master-tcu"}}`)
	for c := 0; c < meta.Clusters; c++ {
		enc.Event(`{"name":"process_name","ph":"M","pid":%d,"args":{"name":"cluster %d"}}`, c+1, c)
		for t := 0; t < meta.TCUsPerCluster; t++ {
			enc.Event(`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":"tcu %d"}}`,
				c+1, t, c*meta.TCUsPerCluster+t)
		}
	}

	for i := range l.Events {
		e := &l.Events[i]
		switch e.Kind {
		case EvQueueDepth:
			enc.Event(`{"name":"cacheq%d","ph":"C","ts":%d,"pid":0,"args":{"depth":%d}}`,
				e.Ctx, e.TS, e.Arg)
		case EvInstr:
			pid, tid := meta.pidTid(e.Ctx)
			enc.Event(`{"name":"%s","cat":"instr","ph":"X","ts":%d,"dur":%d,"pid":%d,"tid":%d,"args":{"pc":%d,"line":%d}}`,
				e.Op.Meta().Name, e.TS, e.Dur, pid, tid, e.PC, e.Arg)
		case EvSpawn:
			enc.Event(`{"name":"spawn","cat":"spawn","ph":"X","ts":%d,"dur":%d,"pid":0,"tid":0,"args":{"vthreads":%d}}`,
				e.TS, e.Dur, e.Arg)
		case EvFault:
			pid, tid := meta.pidTid(e.Ctx)
			enc.Event(`{"name":"fault","cat":"fault","ph":"i","ts":%d,"pid":%d,"tid":%d,"s":"g","args":{"kind":%d}}`,
				e.TS, pid, tid, e.Arg)
		case EvDecommission:
			pid, tid := meta.pidTid(e.Ctx)
			enc.Event(`{"name":"decommission","cat":"fault","ph":"i","ts":%d,"pid":%d,"tid":%d,"s":"p","args":{"tcu":%d}}`,
				e.TS, pid, tid, e.Ctx)
		case EvRedispatch:
			pid, tid := meta.pidTid(e.Ctx)
			enc.Event(`{"name":"redispatch","cat":"fault","ph":"i","ts":%d,"pid":%d,"tid":%d,"s":"t","args":{"latency":%d}}`,
				e.TS, pid, tid, e.Arg)
		case EvRace:
			pid, tid := meta.pidTid(e.Ctx)
			enc.Event(`{"name":"race","cat":"race","ph":"i","ts":%d,"pid":%d,"tid":%d,"s":"g","args":{"write_line":%d,"other_line":%d}}`,
				e.TS, pid, tid, e.PC, e.Arg)
		default: // wait spans
			pid, tid := meta.pidTid(e.Ctx)
			enc.Event(`{"name":"%s","cat":"wait","ph":"X","ts":%d,"dur":%d,"pid":%d,"tid":%d,"args":{"pc":%d,"op":"%s"}}`,
				e.Kind, e.TS, e.Dur, pid, tid, e.PC, e.Op.Meta().Name)
		}
	}
	return enc.Close(l.Dropped)
}

// ChromeEncoder writes the framing every Chrome trace-event document in the
// toolchain shares ("traceEvents" array format): the header, one event per
// line joined by commas, and the footer carrying displayTimeUnit and the
// count of events the source ring dropped. The first write error sticks and
// is returned by Close, so callers emit without checking.
type ChromeEncoder struct {
	w      io.Writer
	err    error
	events int
}

// NewChromeEncoder starts a document on w.
func NewChromeEncoder(w io.Writer) *ChromeEncoder {
	e := &ChromeEncoder{w: w}
	e.printf("{\"traceEvents\":[\n")
	return e
}

// Event appends one event object, formatted by the caller.
func (e *ChromeEncoder) Event(format string, args ...any) {
	if e.events > 0 {
		e.printf(",\n")
	}
	e.events++
	e.printf(format, args...)
}

// Close ends the document and reports the first error of any write.
func (e *ChromeEncoder) Close(dropped uint64) error {
	e.printf("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":\"%d\"}}\n", dropped)
	return e.err
}

func (e *ChromeEncoder) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
