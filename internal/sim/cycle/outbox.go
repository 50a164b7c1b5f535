package cycle

import (
	"xmtgo/internal/isa"
	"xmtgo/internal/sim/engine"
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
	// logIdx is the length of outbox.log when this record was appended: the
	// issues before it commit before the record replays.
	logIdx int32
}

// obSeg marks one window cycle's high-water marks in the outbox buffers
// (exclusive end indices) so CommitCycle can replay a single cycle.
type obSeg struct {
	cycle int64 // absolute cluster cycle, for the replay-order guard
	rec   int32 // end index into recs
	log   int32 // end index into log
	ev    int32 // end length of the cluster's event ring
	prof  int32 // end index into the cluster's deferred profile PCs
}

// outbox accumulates one window's deferred shared effects, in issue order.
// All backing slices are reused across windows.
type outbox struct {
	recs []obRec
	// log holds the opcode (an isa.Op narrowed to a byte) of every issue the
	// window counted (Cluster.count). The counts themselves are in the
	// cluster's stats row already; commit reads the log only to take issues
	// back past a stop (Cluster.uncount) and to feed filter plug-ins, which
	// have been fed log[:fed].
	log []uint8
	fed int32
	// wokeICN collapses duplicate ICN wakes within one window cycle (Wake
	// is idempotent anyway; this just keeps the outbox small — and the
	// wake is a closer, so the window ends at the cycle that set it).
	wokeICN bool
	// closing records that the current cycle appended a window-closing
	// record; WindowTick consumes and resets it.
	closing bool
	segs    []obSeg
}

// reset empties the outbox between windows.
func (o *outbox) reset() {
	o.recs = o.recs[:0]
	o.log, o.fed = o.log[:0], 0
	o.wokeICN = false
	o.closing = false
	o.segs = o.segs[:0]
}

func (o *outbox) add(r obRec) {
	r.logIdx = int32(len(o.log))
	o.recs = append(o.recs, r)
	if r.kind.closing() {
		o.closing = true
	}
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
	// Fill the appended slot field by field: built as a composite literal the
	// segment is assembled on the stack with 4-byte stores and copied out
	// with 16-byte loads, which stalls on store forwarding once per cluster
	// cycle.
	o.segs = append(o.segs, obSeg{})
	seg := &o.segs[len(o.segs)-1]
	seg.cycle = cycle
	seg.rec = int32(len(o.recs))
	seg.log = int32(len(o.log))
	seg.ev = int32(evLen)
	seg.prof = int32(profLen)
	o.closing = false
	return closing
}
