package analysis

import (
	"fmt"

	"xmtgo/internal/diag"
	"xmtgo/internal/xmtc"
)

// checkPsMisuse flags prefix-sum primitives used outside their hardware
// contract:
//
//   - a ps increment whose value is statically known and not 0 or 1: the
//     dedicated prefix-sum unit only combines single-bit increments
//     (paper §II-A); larger increments need psm, which the cache modules
//     serialize. The value is tracked by the nearest dominating constant
//     assignment in traversal order — a deliberately shallow analysis
//     whose one false-positive shape (a constant overwritten on a branch
//     not taken at runtime) is documented in the tests;
//   - a psm whose base is a spawn-private variable: every virtual thread
//     updates its own copy, so the "synchronization" orders nothing and
//     a plain += would be cheaper.
//
// ps bases that are not globals are already hard sema errors and are not
// re-reported here.
func checkPsMisuse(u *Unit) []diag.Diagnostic {
	var ds []diag.Diagnostic
	for _, d := range u.File.Decls {
		fd, ok := d.(*xmtc.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		w := &psWalker{consts: make(map[*xmtc.Symbol]constVal)}
		w.stmt(fd.Body)
		ds = append(ds, w.ds...)
	}
	return ds
}

// constVal is the tracked value of an integer variable.
type constVal struct {
	known bool
	val   int32
}

type psWalker struct {
	ds      []diag.Diagnostic
	consts  map[*xmtc.Symbol]constVal
	private map[*xmtc.Symbol]bool // spawn-private decls of the current spawn
}

func (w *psWalker) report(sev diag.Severity, pos xmtc.Pos, format string, args ...any) {
	w.ds = append(w.ds, diag.Diagnostic{
		Check:    "ps-misuse",
		Severity: sev,
		Pos:      pos.Diag(),
		Msg:      fmt.Sprintf(format, args...),
	})
}

func (w *psWalker) stmt(s xmtc.Stmt) {
	switch n := s.(type) {
	case *xmtc.BlockStmt:
		for _, st := range n.List {
			w.stmt(st)
		}
	case *xmtc.DeclStmt:
		d := n.Decl
		if d.Init != nil {
			w.expr(d.Init)
		}
		for _, e := range d.InitList {
			w.expr(e)
		}
		if d.Sym != nil {
			if d.Init != nil {
				if v, ok := xmtc.FoldConst(d.Init); ok {
					w.consts[d.Sym] = constVal{known: true, val: v}
				} else {
					w.consts[d.Sym] = constVal{}
				}
			} else {
				// Uninitialized locals read as zero on this toolchain, but
				// treat them as unknown: the read is a bug of its own.
				w.consts[d.Sym] = constVal{}
			}
		}
	case *xmtc.ExprStmt:
		w.expr(n.X)
	case *xmtc.IfStmt:
		w.expr(n.Cond)
		w.stmt(n.Then)
		if n.Else != nil {
			w.stmt(n.Else)
		}
	case *xmtc.WhileStmt:
		w.expr(n.Cond)
		w.stmt(n.Body)
	case *xmtc.DoStmt:
		w.stmt(n.Body)
		w.expr(n.Cond)
	case *xmtc.ForStmt:
		if n.Init != nil {
			w.stmt(n.Init)
		}
		if n.Cond != nil {
			w.expr(n.Cond)
		}
		w.stmt(n.Body)
		if n.Post != nil {
			w.expr(n.Post)
		}
	case *xmtc.SwitchStmt:
		w.expr(n.Tag)
		for _, cl := range n.Cases {
			for _, st := range cl.Body {
				w.stmt(st)
			}
		}
	case *xmtc.ReturnStmt:
		if n.X != nil {
			w.expr(n.X)
		}
	case *xmtc.SpawnStmt:
		w.expr(n.Low)
		w.expr(n.High)
		outer := w.private
		if outer == nil { // outermost spawn of this function
			w.private = xmtc.DeclaredIn(n.Body)
		}
		w.stmt(n.Body)
		w.private = outer
	}
}

func (w *psWalker) expr(e xmtc.Expr) {
	if e == nil {
		return
	}
	switch n := e.(type) {
	case *xmtc.Assign:
		w.expr(n.RHS)
		if id, ok := n.LHS.(*xmtc.Ident); ok && id.Sym != nil {
			if v, ok := xmtc.FoldConst(n.RHS); ok && n.Op == xmtc.ASSIGN {
				w.consts[id.Sym] = constVal{known: true, val: v}
			} else {
				w.consts[id.Sym] = constVal{}
			}
		} else {
			w.expr(n.LHS)
		}
	case *xmtc.IncDec:
		if id, ok := n.X.(*xmtc.Ident); ok && id.Sym != nil {
			w.consts[id.Sym] = constVal{}
		} else {
			w.expr(n.X)
		}
	case *xmtc.Call:
		for _, a := range n.Args {
			w.expr(a)
		}
		w.syncCall(n)
		// The builtin writes the old base value into its increment:
		// afterwards the increment is no longer a known constant.
		if n.IsPrefixSum() && len(n.Args) > 0 {
			if id, ok := n.Args[0].(*xmtc.Ident); ok && id.Sym != nil {
				w.consts[id.Sym] = constVal{}
			}
		}
	case *xmtc.Binary:
		w.expr(n.X)
		w.expr(n.Y)
	case *xmtc.Unary:
		w.expr(n.X)
	case *xmtc.Cond:
		w.expr(n.C)
		w.expr(n.T)
		w.expr(n.F)
	case *xmtc.Index:
		w.expr(n.X)
		w.expr(n.I)
	case *xmtc.Member:
		w.expr(n.X)
	case *xmtc.Cast:
		w.expr(n.X)
	}
}

func (w *psWalker) syncCall(n *xmtc.Call) {
	if !n.IsPrefixSum() || len(n.Args) != 2 {
		return
	}
	if n.Builtin == xmtc.BuiltinPs {
		if id, ok := n.Args[0].(*xmtc.Ident); ok && id.Sym != nil {
			if cv := w.consts[id.Sym]; cv.known && cv.val != 0 && cv.val != 1 {
				w.report(diag.Warning, n.Pos,
					"ps increment %q is %d here: the hardware prefix-sum unit combines only 0/1 increments (paper §II-A); use psm for arbitrary values", id.Sym.Name, cv.val)
			}
		}
		return
	}
	// psm: a spawn-private base synchronizes nothing.
	if id, ok := n.Args[1].(*xmtc.Ident); ok && id.Sym != nil && w.private != nil && w.private[id.Sym] {
		w.report(diag.Warning, n.Pos,
			"psm to thread-private %q: each virtual thread updates its own copy, so the prefix-sum provides no cross-thread ordering; a plain assignment is cheaper", id.Sym.Name)
	}
}
