package analysis

import (
	"fmt"

	"xmtgo/internal/analysis/dataflow"
	"xmtgo/internal/diag"
	"xmtgo/internal/xmtc"
)

// scalarLocal reports whether sym is a scalar local variable the
// definition-based checks can reason about soundly: address-taken locals
// escape through pointers and are excluded.
func scalarLocal(g *dataflow.Graph, sym *xmtc.Symbol) bool {
	return sym != nil && sym.Kind == xmtc.SymLocal &&
		sym.Type != nil && sym.Type.IsScalar() && !g.AddressTaken[sym]
}

// checkUninitRead flags reads of scalar locals all of whose reaching
// definitions are an initializer-less declaration: every path from the
// function entry to the read leaves the variable holding garbage. (If even
// one path assigns first, the read is not flagged — mixed paths are the
// classic false positive of pattern-based uninitialized checks, and the
// reaching-definitions solution rules them out.) Unreachable code is
// skipped: its reaching sets are vacuous.
func checkUninitRead(u *Unit) []diag.Diagnostic {
	var ds []diag.Diagnostic
	for _, g := range u.Graphs() {
		reach := g.ReachingDefs()
		reachable := g.Reachable()
		reported := make(map[*xmtc.Symbol]bool)
		for _, blk := range g.Blocks {
			if !reachable[blk.ID] {
				continue
			}
			for i := range blk.Refs {
				ref := &blk.Refs[i]
				if ref.Kind != dataflow.RefUse || reported[ref.Sym] ||
					!scalarLocal(g, ref.Sym) || ref.Index != nil {
					continue
				}
				defs := reach.At(blk, i, ref.Sym)
				if len(defs) == 0 {
					continue
				}
				bad := true
				var declPos xmtc.Pos
				for _, d := range defs {
					r := d.Ref()
					if r == nil || !r.Decl || r.HasInit {
						bad = false
						break
					}
					declPos = r.Pos
				}
				if !bad {
					continue
				}
				reported[ref.Sym] = true
				ds = append(ds, diag.Diagnostic{
					Check:    "uninit-read",
					Severity: diag.Error,
					Pos:      ref.Pos.Diag(),
					Msg: fmt.Sprintf("%q is read here but no path from the function entry has assigned it: the declaration leaves it holding garbage",
						ref.Sym.Name),
					Related: []diag.Related{{
						Pos: declPos.Diag(),
						Msg: fmt.Sprintf("%q declared without an initializer here", ref.Sym.Name),
					}},
				})
			}
		}
	}
	return ds
}

// checkDeadStore flags plain assignments to scalar locals whose stored
// value no path ever reads before the next overwrite (or the end of the
// function). The exclusions keep it to the unambiguous shape:
//
//   - declarations with initializers are idiomatic defaults, not flagged;
//   - compound assignments and ++/-- read the location themselves;
//   - ps/psm write the old base into their increment as a *result* — the
//     store is the point of the primitive, not a redundancy;
//   - a right-hand side containing a call may be executed for effect;
//   - a self-assignment (x = x) is the C idiom for "intentionally unused";
//   - parameters and address-taken or aggregate locals escape the model;
//   - unreachable code is dead wholesale, which is a different finding.
func checkDeadStore(u *Unit) []diag.Diagnostic {
	var ds []diag.Diagnostic
	for _, g := range u.Graphs() {
		live := g.Liveness()
		reachable := g.Reachable()
		for _, blk := range g.Blocks {
			if !reachable[blk.ID] {
				continue
			}
			for i := range blk.Refs {
				ref := &blk.Refs[i]
				if ref.Kind != dataflow.RefDef || !scalarLocal(g, ref.Sym) {
					continue
				}
				if ref.Decl || ref.Compound || ref.SyncDef || ref.Weak ||
					ref.Index != nil || ref.RHS == nil || ref.RHSCall {
					continue
				}
				if id, ok := ref.RHS.(*xmtc.Ident); ok && id.Sym == ref.Sym {
					continue // self-assignment: intentional "unused" marker
				}
				if !live.DeadAfter(blk, i, ref.Sym) {
					continue
				}
				ds = append(ds, diag.Diagnostic{
					Check:    "dead-store",
					Severity: diag.Warning,
					Pos:      ref.Pos.Diag(),
					Msg: fmt.Sprintf("value stored to %q is never read: every path overwrites it or reaches the end of the function first",
						ref.Sym.Name),
				})
			}
		}
	}
	return ds
}

// checkJoinSafety enforces the sync-safety discipline around the spawn's
// implicit barrier (in the spirit of clocked X10: every activity must be
// able to quiesce at the clock):
//
//   - (a) a block inside a spawn region from which the join is unreachable
//     — an infinite loop with no break — means those virtual threads never
//     arrive at the barrier and the spawn never completes (error). Regions
//     with boundary escapes are skipped; those are already errors;
//   - (b) a spin-wait inside the region on a scalar global that the region
//     also writes with a plain store is a hand-rolled barrier: under the
//     relaxed XMT memory model the write may stay invisible to the spinner
//     indefinitely (warning; ps/psm-updated globals are the sanctioned
//     discipline and are not flagged, since the prefix-sum orders them).
func checkJoinSafety(u *Unit) []diag.Diagnostic {
	var ds []diag.Diagnostic
	for _, g := range u.Graphs() {
		reachable := g.Reachable()
		for _, reg := range g.Regions {
			if len(reg.Escapes) > 0 {
				continue
			}
			back := g.CanReach(reg.Exit)
			for _, blk := range reg.Blocks {
				if !reachable[blk.ID] || back[blk.ID] {
					continue
				}
				ds = append(ds, diag.Diagnostic{
					Check:    "join-safety",
					Severity: diag.Error,
					Pos:      blk.Pos.Diag(),
					Msg:      "virtual threads reaching this point can never arrive at the spawn's join barrier: no path out of the loop, so the spawn never completes",
				})
				break // one finding per region
			}
		}
		ds = append(ds, spinBarrierDiags(g)...)
	}
	return ds
}

// spinBarrierDiags implements join-safety (b): spin-waits standing in for
// the join barrier.
func spinBarrierDiags(g *dataflow.Graph) []diag.Diagnostic {
	var ds []diag.Diagnostic
	for _, sl := range g.SpinLoops {
		sym, ok := spunGlobal(sl.Cond)
		if !ok {
			continue
		}
		// Only a plain store in the same region makes this a hand-rolled
		// barrier; a psm-updated flag is ordered by the prefix-sum.
		var writePos xmtc.Pos
		found := false
		for _, blk := range sl.Region.Blocks {
			for i := range blk.Refs {
				ref := &blk.Refs[i]
				if ref.Kind == dataflow.RefDef && ref.Sym == sym && !ref.SyncDef {
					writePos, found = ref.Pos, true
					break
				}
			}
			if found {
				break
			}
		}
		if !found {
			continue
		}
		ds = append(ds, diag.Diagnostic{
			Check:    "join-safety",
			Severity: diag.Warning,
			Pos:      sl.Pos.Diag(),
			Msg: fmt.Sprintf("spin-wait on %q stands in for the spawn's join barrier: the relaxed XMT memory model never obliges the write at %s to become visible here; update the flag with ps/psm or rely on the implicit join",
				sym.Name, writePos),
			Related: []diag.Related{{
				Pos: writePos.Diag(),
				Msg: fmt.Sprintf("%q written with a plain store here", sym.Name),
			}},
		})
	}
	return ds
}

// spunGlobal returns the scalar global a spin condition is polling, if the
// condition reads exactly one global and no sync intervenes syntactically.
func spunGlobal(cond xmtc.Expr) (*xmtc.Symbol, bool) {
	var sym *xmtc.Symbol
	count := 0
	for _, id := range condGlobals(cond) {
		if id.Sym.Type == nil || !id.Sym.Type.IsScalar() {
			continue
		}
		if sym != id.Sym {
			count++
			sym = id.Sym
		}
	}
	return sym, count == 1
}

// condGlobals returns the identifiers of globals a spin loop's condition
// reads, in source order: the polled locations join-safety and volatile
// judge.
func condGlobals(cond xmtc.Expr) []*xmtc.Ident {
	var ids []*xmtc.Ident
	xmtc.EachExpr(cond, func(e xmtc.Expr) {
		if id, ok := e.(*xmtc.Ident); ok && id.Sym != nil && id.Sym.Kind == xmtc.SymGlobal {
			ids = append(ids, id)
		}
	})
	return ids
}
