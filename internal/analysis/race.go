package analysis

import (
	"fmt"

	"xmtgo/internal/analysis/dataflow"
	"xmtgo/internal/diag"
	"xmtgo/internal/xmtc"
)

// checkSpawnRace is the spawn-region race detector: it flags pairs of
// conflicting accesses (write/write or read/write of the same global, or
// of potentially aliasing elements of the same global array) inside a
// spawn body when neither access is ordered by a prefix-sum. This is the
// static form of the paper's Fig. 6 litmus hazard: under the relaxed XMT
// memory model such a pair may be observed out of order (a prefetched
// line can make thread B read the old x after the new y), while the
// Fig. 7 pattern — releasing writes with ps/psm and acquiring reads after
// one — restores the partial order and is reported clean.
//
// The check runs over the dataflow CFG (the reference streams of a spawn
// region's blocks reproduce the legacy traversal order exactly), which errs
// quiet in the same deliberate ways as before:
//
//   - only accesses whose base is a global (or a global array/struct
//     element) are tracked; pointer dereferences are ignored;
//   - a pair is racy only if at least one side is thread-varying — its
//     index or stored value mentions $, it executes under a $-dependent
//     condition, or its index chases (through unique reaching definitions
//     of region-private locals) to a value loaded from shared data at a
//     $-dependent position: u = esrc[$]; label[u] = ... can collide for
//     ordinary inputs. Pure index arithmetic of $ (the FFT butterfly
//     partition) deliberately stays quiet — see Reach.TidDependent;
//   - a ps/psm earlier in traversal order than access R and later than
//     access W orders the pair (release/acquire); this over-approximates
//     across sibling branches, a deliberate false-negative trade;
//   - a single access site never races with itself.
//
// Reaching definitions buy three suppressions the AST walk could not see:
//
//   - spawn(k, k) starts exactly one virtual thread, so nothing in the
//     region can race;
//   - two accesses both pinned to the same thread by `$ == k` guards are
//     sequenced within that thread;
//   - array indices that resolve (through unique reaching definitions of
//     region-private locals) to affine forms a*$+c proven disjoint across
//     distinct thread ids — A[$] vs A[$], A[2*$] vs A[2*$+1], A[$] vs A[9]
//     under spawn(0, 7) — cannot alias.
func checkSpawnRace(u *Unit) []diag.Diagnostic {
	var ds []diag.Diagnostic
	for _, g := range u.Graphs() {
		if len(g.Regions) == 0 {
			continue
		}
		reach := g.ReachingDefs()
		for _, reg := range g.Regions {
			ds = append(ds, raceScanRegion(reach, reg)...)
		}
	}
	return ds
}

// raceAccess is one tracked shared-memory access inside a spawn region.
type raceAccess struct {
	sym     *xmtc.Symbol
	index   xmtc.Expr // innermost array index, nil for scalars
	write   bool
	tidDep  bool
	pinned  bool  // guarded by `$ == pinVal`
	pinVal  int32 // the pinning thread id
	pos     xmtc.Pos
	text    string // rendered access, for messages
	syncsAt int    // prefix-sums seen before this access, traversal order
	blk     *dataflow.Block
	refIdx  int
}

func raceScanRegion(reach *dataflow.Reach, reg *dataflow.Region) []diag.Diagnostic {
	if reg.SingleThread() {
		return nil // spawn(k, k): one virtual thread cannot race with itself
	}
	var accs []raceAccess
	for _, blk := range reg.Blocks {
		for i := range blk.Refs {
			ref := &blk.Refs[i]
			if ref.Sym == nil || ref.Sym.Kind != xmtc.SymGlobal {
				continue
			}
			switch ref.Kind {
			case dataflow.RefUse:
				// A compound assignment also reads the location, but the
				// write access already conflicts with everything the read
				// would.
				if ref.Compound {
					continue
				}
			case dataflow.RefDef:
			default:
				continue
			}
			accs = append(accs, raceAccess{
				sym:   ref.Sym,
				index: ref.Index,
				write: ref.Kind == dataflow.RefDef,
				// Thread-varying directly ($ in the value, the guard, or the
				// index) or through data routing: an index that chases to a
				// shared-data load at a $-dependent position (u = esrc[$];
				// label[u] = ...) varies per thread and can collide across
				// threads for ordinary inputs.
				tidDep: ref.ValueTid || ref.GuardTid ||
					(ref.Index != nil && (xmtc.ContainsTid(ref.Index) ||
						reach.TidDependent(blk, i, ref.Index))),
				pinned: ref.Pinned,
				pinVal: ref.PinVal,
				pos:    ref.Pos,
				text:   ref.Text,
				// The legacy per-region counter: syncs seen since the spawn.
				syncsAt: ref.SyncIdx - reg.SyncStart,
				blk:     blk,
				refIdx:  i,
			})
		}
	}

	total := reg.Syncs()
	type pairKey struct {
		a, b xmtc.Pos
	}
	reported := make(map[pairKey]bool)
	var ds []diag.Diagnostic
	for i := 0; i < len(accs); i++ {
		for j := i + 1; j < len(accs); j++ {
			a, b := accs[i], accs[j]
			if !racePair(a, b, total) {
				continue
			}
			if a.pinned && b.pinned && a.pinVal == b.pinVal {
				continue // both run on the same pinned thread: program order
			}
			if disjointIndexes(reach, reg, a, b) {
				continue // provably different elements on different threads
			}
			key := pairKey{a.pos, b.pos}
			if reported[key] {
				continue
			}
			reported[key] = true
			ds = append(ds, diag.Diagnostic{
				Check:    "spawn-race",
				Severity: diag.Warning,
				Pos:      b.pos.Diag(),
				Msg: fmt.Sprintf("possible data race on %q: this %s and the %s at %s are not ordered by a prefix-sum; under the relaxed XMT memory model they may be observed out of order (paper Fig. 6)",
					a.sym.Name, accessWord(b), accessWord(a), a.pos),
				Related: []diag.Related{{
					Pos: a.pos.Diag(),
					Msg: fmt.Sprintf("conflicting %s of %q", accessWord(a), a.text),
				}},
			})
		}
	}
	return ds
}

func accessWord(a raceAccess) string {
	if a.write {
		return "write"
	}
	return "read"
}

// racePair decides whether two accesses form an unordered conflict.
func racePair(a, b raceAccess, totalSyncs int) bool {
	if a.sym != b.sym {
		return false
	}
	if !a.write && !b.write {
		return false
	}
	if !a.tidDep && !b.tidDep {
		return false
	}
	if a.pos == b.pos {
		return false // one site racing with itself is out of scope
	}
	// Array element aliasing, on syntax alone (the affine suppression in
	// the caller subsumes these, but they need no reaching definitions).
	if a.index != nil && b.index != nil {
		ai, aok := xmtc.FoldConst(a.index)
		bi, bok := xmtc.FoldConst(b.index)
		if aok && bok && ai != bi {
			return false // provably distinct elements
		}
		if xmtc.ContainsTid(a.index) && xmtc.ContainsTid(b.index) &&
			xmtc.RenderExpr(a.index) == xmtc.RenderExpr(b.index) {
			return false // same $-dependent element: private to each thread
		}
	}
	// Release/acquire ordering through a prefix-sum: one side issues a
	// ps/psm after its access, the other before.
	after := func(x raceAccess) bool { return totalSyncs-x.syncsAt > 0 }
	before := func(x raceAccess) bool { return x.syncsAt > 0 }
	if after(a) && before(b) {
		return false
	}
	if after(b) && before(a) {
		return false
	}
	return true
}

// disjointIndexes suppresses an array-element pair when both indices
// resolve to affine functions of $ that can never collide across two
// distinct virtual threads of the region.
func disjointIndexes(reach *dataflow.Reach, reg *dataflow.Region, a, b raceAccess) bool {
	if a.index == nil || b.index == nil {
		return false
	}
	a1, c1, ok := reach.AffineIndex(a.blk, a.refIdx, a.index)
	if !ok {
		return false
	}
	a2, c2, ok := reach.AffineIndex(b.blk, b.refIdx, b.index)
	if !ok {
		return false
	}
	return dataflow.Disjoint(a1, c1, a2, c2, reg)
}
