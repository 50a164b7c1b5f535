package cycle

import (
	"xmtgo/internal/isa"
	"xmtgo/internal/sim/engine"
	"xmtgo/internal/sim/stats"
)

// The cluster macro-actor ticks all clusters inside one scheduler event,
// possibly in parallel across host workers (engine.ParallelMacroActor). To
// keep results bit-identical to serial simulation, the compute phase of a
// cluster tick may mutate only cluster-local state; every effect on shared
// state — scheduler events, global statistics, the prefix-sum unit's pacing
// window, syscalls, the spawn unit's done count — is recorded in the
// cluster's outbox and replayed by Cluster.CommitCycle. Commits run serially
// in cluster-id order, which is exactly the interleaving the serial
// simulator produces, so scheduler sequence numbers, prefix-sum slot
// assignment, program output and statistics all match to the bit.
//
// A cluster may execute several cycles (a lookahead window) before any
// commit runs, so the outbox carves its buffers into per-cycle segments
// (obSeg): CommitCycle replays exactly one segment at that cycle's edge
// time, preserving the (cycle, cluster) interleaving of a simulation that
// commits after every cycle.

type obKind uint8

const (
	obStat    obKind = iota // add n to a shared stats counter
	obTrace                 // invoke the instruction trace observer
	obPS                    // submit a prefix-sum / global-register request
	obSys                   // execute a syscall (may print, halt, checkpoint)
	obWakeICN               // wake the ICN macro-actor (send queue non-empty)
	obAsync                 // schedule an async-ICN delivery at time at
	obDone                  // report this TCU done to the spawn unit
	obDecomm                // decommission this TCU (permanent fault at a safe point)
	obFail                  // abort the simulation with err
	obRace                  // record a locally-served read with the race sanitizer
)

// closing reports whether a record kind ends a lookahead window: once the
// effect commits, shared machine state (the scheduler, the prefix-sum
// window, the spawn unit, the ICN's view of the send queue) can change, so
// no later cycle of the same window could have seen frozen inputs.
// Pure-observation kinds (stats, trace, race records) never close.
func (k obKind) closing() bool {
	return k != obStat && k != obTrace && k != obRace
}

type obRec struct {
	kind obKind
	// in points at the issuing instruction in Prog.Text (trace, ps, sys and
	// race records): the commit phase reads Line, the operands or the whole
	// instruction from there; the compute phase only takes the address.
	in   *isa.Instr
	t    *TCU
	pkg  *Package
	at   engine.Time
	n    uint64
	stat *uint64
	err  error
	pc   int
	// histIdx is the length of outbox.hist when this record was appended:
	// instruction counts issued before this record flush before it replays.
	histIdx int32
}

// obSeg marks one window cycle's high-water marks in the outbox buffers
// (exclusive end indices) so CommitCycle can replay a single cycle.
type obSeg struct {
	cycle int64 // absolute cluster cycle, for the replay-order guard
	rec   int32 // end index into recs
	hist  int32 // end index into hist
	ev    int32 // end length of the cluster's event ring
	prof  int32 // end index into the cluster's deferred profile PCs
}

// outbox accumulates one window's deferred shared effects, in issue order.
// All backing slices are reused across windows.
type outbox struct {
	recs []obRec
	// Instruction counts travel as opcode histograms, one per replay range
	// (the issues between two records, or up to a cycle mark): cnt/touched
	// accumulate the open range — a counter bump per issue, the hottest
	// write in the simulator — and cut closes it, appending one bucket per
	// distinct opcode to hist. cnt is indexed by the byte-wide opcode of an
	// issue record, so it needs no bounds check.
	cnt     [256]uint32
	touched []uint8
	hist    []stats.OpCount
	// due is the prefix of hist that replay has committed — advanced at the
	// flush points, never past a failure or halt — and flushed the prefix
	// already added to the collector. Nothing reads the instruction counters
	// inside a window's commit, so flushCounts normally runs once, when the
	// window ends, and merges the window's cycles; with filter plug-ins
	// attached it runs at every flush point, so the order of their Instr
	// callbacks does not depend on the window size.
	due     int32
	flushed int32
	merged  []stats.OpCount // flushCounts scratch
	// wokeICN collapses duplicate ICN wakes within one window cycle (Wake
	// is idempotent anyway; this just keeps the outbox small — and the
	// wake is a closer, so the window ends at the cycle that set it).
	wokeICN bool
	// closing records that the current cycle appended a window-closing
	// record; WindowTick consumes and resets it.
	closing bool
	segs    []obSeg
}

// reset empties the outbox between windows. cnt/touched are empty already:
// every cycle ends with a cut (mark), and flushCounts drains what it merges.
func (o *outbox) reset() {
	o.recs = o.recs[:0]
	o.hist, o.due, o.flushed = o.hist[:0], 0, 0
	o.wokeICN = false
	o.closing = false
	o.segs = o.segs[:0]
}

func (o *outbox) add(r obRec) {
	o.cut()
	r.histIdx = int32(len(o.hist))
	o.recs = append(o.recs, r)
	if r.kind.closing() {
		o.closing = true
	}
}

// count records one committed issue of op (an isa.Op narrowed to the byte
// the issue record holds).
func (o *outbox) count(op uint8) {
	if o.cnt[op] == 0 {
		o.touched = append(o.touched, op)
	}
	o.cnt[op]++
}

// flushCounts adds the committed, not yet flushed counts to the collector.
// Runs in the commit phase, after the window's last cut, so cnt/touched are
// idle and serve as the merge table that folds a multi-cycle window's ranges
// into one bucket per distinct opcode. A one-cycle window has no cycles to
// fold and hands its ranges over as they are.
func (o *outbox) flushCounts(c *stats.Collector, cluster int) {
	if o.due == o.flushed {
		return
	}
	pending := o.hist[o.flushed:o.due]
	o.flushed = o.due
	if len(o.segs) <= 1 {
		c.CountInstrs(pending, cluster)
		return
	}
	for _, b := range pending {
		if o.cnt[b.Op] == 0 {
			o.touched = append(o.touched, uint8(b.Op))
		}
		o.cnt[b.Op] += b.N
	}
	o.merged = o.drain(o.merged[:0])
	c.CountInstrs(o.merged, cluster)
}

// cut closes the open histogram range, appending its buckets to hist.
func (o *outbox) cut() { o.hist = o.drain(o.hist) }

// drain empties cnt/touched into dst, one bucket per touched opcode.
func (o *outbox) drain(dst []stats.OpCount) []stats.OpCount {
	for _, op := range o.touched {
		dst = append(dst, stats.OpCount{Op: isa.Op(op), N: o.cnt[op]})
		o.cnt[op] = 0
	}
	o.touched = o.touched[:0]
	return dst
}

func (o *outbox) stat(ctr *uint64, n uint64) {
	o.add(obRec{kind: obStat, stat: ctr, n: n})
}

func (o *outbox) trace(t *TCU, pc int, in *isa.Instr) {
	o.add(obRec{kind: obTrace, t: t, pc: pc, in: in})
}

func (o *outbox) ps(t *TCU, in *isa.Instr) {
	o.add(obRec{kind: obPS, t: t, in: in})
}

func (o *outbox) sys(t *TCU, pc int, in *isa.Instr) {
	o.add(obRec{kind: obSys, t: t, pc: pc, in: in})
}

func (o *outbox) wakeICN() {
	if o.wokeICN {
		return
	}
	o.wokeICN = true
	o.add(obRec{kind: obWakeICN})
}

func (o *outbox) async(p *Package, at engine.Time) {
	o.add(obRec{kind: obAsync, pkg: p, at: at})
}

func (o *outbox) done(t *TCU) {
	o.add(obRec{kind: obDone, t: t})
}

func (o *outbox) decomm(t *TCU) {
	o.add(obRec{kind: obDecomm, t: t})
}

func (o *outbox) fail(err error) {
	o.add(obRec{kind: obFail, err: err})
}

// race defers a race-sanitizer read record for a load served entirely
// inside the cluster (prefetch-buffer hit, read-only cache hit) during the
// parallel compute phase. The address rides in n; the source line comes
// from in.Line at commit. Only emitted when race checking is enabled.
func (o *outbox) race(t *TCU, addr uint32, in *isa.Instr) {
	o.add(obRec{kind: obRace, t: t, in: in, n: uint64(addr)})
}

// mark closes the current cycle's segment and reports whether it contained
// a window-closing record. evLen is the cluster event ring's length,
// profLen the deferred-profile cursor.
func (o *outbox) mark(cycle int64, evLen, profLen int) (closing bool) {
	closing = o.closing
	o.cut()
	// Fill the appended slot field by field: built as a composite literal the
	// segment is assembled on the stack with 4-byte stores and copied out
	// with 16-byte loads, which stalls on store forwarding once per cluster
	// cycle.
	o.segs = append(o.segs, obSeg{})
	seg := &o.segs[len(o.segs)-1]
	seg.cycle = cycle
	seg.rec = int32(len(o.recs))
	seg.hist = int32(len(o.hist))
	seg.ev = int32(evLen)
	seg.prof = int32(profLen)
	o.closing = false
	return closing
}
