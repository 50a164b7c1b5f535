package analysis

import (
	"fmt"

	"xmtgo/internal/analysis/dataflow"
	"xmtgo/internal/diag"
	"xmtgo/internal/xmtc"
)

// checkVolatile flags reads of non-volatile shared globals inside a spawn
// body that register allocation is entitled to fold away, so the program
// cannot observe other threads' updates even though the programmer
// appears to expect it:
//
//   - a second read of the same non-volatile global scalar in one
//     straight-line statement sequence, with no intervening write or
//     prefix-sum: the optimizer keeps the first value in a register and
//     the second load is dead. Only globals some thread actually writes
//     inside the spawn body are tracked — re-reading a uniform that stays
//     constant for the whole parallel section is harmless, and flagging
//     it would bury the real findings (the FFT workload reads its stage
//     geometry globals repeatedly, for example);
//   - a loop whose condition reads a non-volatile global scalar that the
//     loop body neither writes nor synchronizes on: the load hoists out
//     of the loop and the spin never terminates (or never spins).
//
// Both are warnings; the fix is the volatile qualifier or a ps/psm. Only
// scalar globals are tracked — array elements are left to spawn-race.
//
// The re-read scan walks the statement lists as written: nested braces,
// declaration initializers, loop conditions and return act (or do not
// act) as barriers in ways basic blocks do not record. The spin-wait scan
// reads the dataflow CFG's spin loops, as join-safety does.
func checkVolatile(u *Unit) []diag.Diagnostic {
	var ds []diag.Diagnostic
	// Outermost spawns only: nested spawns are serialized, so their bodies
	// are checked as part of the enclosing one.
	xmtc.Inspect(u.File, func(n xmtc.Node) bool {
		sp, ok := n.(*xmtc.SpawnStmt)
		if !ok {
			_, isExpr := n.(xmtc.Expr)
			return !isExpr
		}
		w := &volWalker{written: writtenGlobals(sp.Body)}
		w.stmts(sp.Body.List)
		ds = append(ds, w.ds...)
		return false
	})
	for _, g := range u.Graphs() {
		ds = append(ds, spinWaitDiags(g)...)
	}
	return ds
}

type volWalker struct {
	ds []diag.Diagnostic
	// written holds the globals some statement of the spawn body stores
	// to (plain write or psm base); only their re-reads are suspicious.
	written map[*xmtc.Symbol]bool
}

// writtenGlobals collects the global scalars the spawn body writes,
// including psm bases (the cache modules update those in place).
func writtenGlobals(body xmtc.Stmt) map[*xmtc.Symbol]bool {
	out := make(map[*xmtc.Symbol]bool)
	record := func(e xmtc.Expr) {
		if sym := xmtc.RootSym(e); sym != nil && sym.Kind == xmtc.SymGlobal {
			out[sym] = true
		}
	}
	xmtc.EachExpr(body, func(e xmtc.Expr) {
		switch n := e.(type) {
		case *xmtc.Assign:
			record(n.LHS)
		case *xmtc.IncDec:
			record(n.X)
		case *xmtc.Call:
			if n.IsPrefixSum() && len(n.Args) == 2 {
				record(n.Args[1])
			}
		}
	})
	return out
}

func (w *volWalker) report(pos xmtc.Pos, format string, args ...any) {
	w.ds = append(w.ds, volatileDiag(pos, format, args...))
}

func volatileDiag(pos xmtc.Pos, format string, args ...any) diag.Diagnostic {
	return diag.Diagnostic{
		Check:    "volatile",
		Severity: diag.Warning,
		Pos:      pos.Diag(),
		Msg:      fmt.Sprintf(format, args...),
	}
}

// sharedScalar reports whether sym is a non-volatile global scalar.
func sharedScalar(sym *xmtc.Symbol) bool {
	return sym != nil && sym.Kind == xmtc.SymGlobal &&
		sym.Type.Kind != xmtc.KArray && sym.Type.Kind != xmtc.KStruct &&
		!sym.Type.Volatile && !sym.PsBase
}

// stmts scans one straight-line statement list, tracking the first read
// of each shared scalar; control-flow statements recurse with a fresh
// tracking state and act as barriers in the enclosing sequence.
func (w *volWalker) stmts(list []xmtc.Stmt) {
	first := make(map[*xmtc.Symbol]xmtc.Pos)
	reset := func() { first = make(map[*xmtc.Symbol]xmtc.Pos) }
	for _, s := range list {
		switch n := s.(type) {
		case *xmtc.DeclStmt:
			if n.Decl.Init != nil {
				w.scanReads(n.Decl.Init, first)
			}
		case *xmtc.ExprStmt:
			w.scanReads(n.X, first)
			w.scanEffects(n.X, first, reset)
		case *xmtc.BlockStmt:
			w.stmts(n.List)
			reset()
		case *xmtc.IfStmt:
			w.scanReads(n.Cond, first)
			w.branch(n.Then)
			w.branch(n.Else)
			reset()
		case *xmtc.WhileStmt:
			w.branch(n.Body)
			reset()
		case *xmtc.DoStmt:
			w.branch(n.Body)
			reset()
		case *xmtc.ForStmt:
			w.branch(n.Body)
			reset()
		case *xmtc.SwitchStmt:
			w.scanReads(n.Tag, first)
			for _, cl := range n.Cases {
				w.stmts(cl.Body)
			}
			reset()
		case *xmtc.SpawnStmt:
			w.stmts(n.Body.List)
			reset()
		}
	}
}

func (w *volWalker) branch(s xmtc.Stmt) {
	switch n := s.(type) {
	case nil:
	case *xmtc.BlockStmt:
		w.stmts(n.List)
	default:
		w.stmts([]xmtc.Stmt{s})
	}
}

// scanReads records every read of a shared scalar in e and reports
// duplicates within the current sequence.
func (w *volWalker) scanReads(e xmtc.Expr, first map[*xmtc.Symbol]xmtc.Pos) {
	xmtc.EachExpr(e, func(x xmtc.Expr) {
		id, ok := x.(*xmtc.Ident)
		if !ok || !sharedScalar(id.Sym) || !w.written[id.Sym] {
			return
		}
		if isWriteTarget(e, id) {
			return
		}
		if prev, seen := first[id.Sym]; seen {
			w.report(id.Pos,
				"%q is re-read with no intervening write or prefix-sum (first read at %s): register allocation folds the second load into the first, so it cannot observe another thread's update; declare %q volatile if that is the intent",
				id.Name, prev, id.Name)
			return
		}
		first[id.Sym] = id.Pos
	})
}

// scanEffects invalidates tracking state for writes and sync operations
// in e: a write makes the next read legitimately fresh, and a prefix-sum
// flushes the reader's buffers.
func (w *volWalker) scanEffects(e xmtc.Expr, first map[*xmtc.Symbol]xmtc.Pos, reset func()) {
	xmtc.EachExpr(e, func(x xmtc.Expr) {
		switch n := x.(type) {
		case *xmtc.Assign:
			if id, ok := n.LHS.(*xmtc.Ident); ok && id.Sym != nil {
				delete(first, id.Sym)
			}
		case *xmtc.IncDec:
			if id, ok := n.X.(*xmtc.Ident); ok && id.Sym != nil {
				delete(first, id.Sym)
			}
		case *xmtc.Call:
			if n.IsPrefixSum() {
				reset()
			}
		}
	})
}

// isWriteTarget reports whether id is the store target of the root
// expression (the x of x = ..., x++), which is not a read.
func isWriteTarget(root xmtc.Expr, id *xmtc.Ident) bool {
	switch n := root.(type) {
	case *xmtc.Assign:
		return n.Op == xmtc.ASSIGN && n.LHS == xmtc.Expr(id)
	case *xmtc.IncDec:
		return n.X == xmtc.Expr(id)
	}
	return false
}

// spinWaitDiags flags the spin loops that busy-wait on a non-volatile
// global: the condition reads it, and the loop body neither writes it nor
// performs a prefix-sum.
func spinWaitDiags(g *dataflow.Graph) []diag.Diagnostic {
	var ds []diag.Diagnostic
	for _, sl := range g.SpinLoops {
		var watched []*xmtc.Ident
		for _, id := range condGlobals(sl.Cond) {
			if sharedScalar(id.Sym) {
				watched = append(watched, id)
			}
		}
		if len(watched) == 0 {
			continue
		}
		writes := make(map[*xmtc.Symbol]bool)
		syncs := false
		for _, blk := range sl.Body {
			for i := range blk.Refs {
				ref := &blk.Refs[i]
				syncs = syncs || ref.Kind == dataflow.RefSync
				if identDef(ref) {
					writes[ref.Sym] = true
				}
			}
		}
		if syncs {
			continue
		}
		for _, id := range watched {
			if !writes[id.Sym] {
				ds = append(ds, volatileDiag(sl.Pos,
					"spin-wait on non-volatile global %q: the loop body never writes it and performs no prefix-sum, so the load hoists out of the loop and the condition never changes; declare %q volatile or synchronize with ps/psm",
					id.Name, id.Name))
				break
			}
		}
	}
	return ds
}
