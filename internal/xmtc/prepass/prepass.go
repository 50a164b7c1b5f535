// Package prepass implements the source-to-source pre-pass of the XMTC
// compiler (the CIL-based pass in the paper): it serializes nested spawn
// statements (paper §IV-E), optionally applies virtual-thread clustering
// (coarsening, §IV-C), and performs outlining (§IV-B, Fig. 8) — each spawn
// statement is extracted into a new top-level function and replaced by a
// call, with captured serial-scope variables passed by value or, when the
// parallel code may write them, by reference. Outlining prevents the
// illegal dataflow a serial core pass could otherwise create across
// spawn-block boundaries.
package prepass

import (
	"fmt"

	"xmtgo/internal/xmtc"
)

// Options configure the pre-pass.
type Options struct {
	// ClusterFactor > 1 groups that many consecutive virtual threads into
	// one longer virtual thread (thread clustering).
	ClusterFactor int
	// DisableOutline keeps spawns inline (for compiler experiments; the
	// core pass still handles them, unlike GCC).
	DisableOutline bool
}

// Run rewrites the checked AST in place.
func Run(f *xmtc.File, opts Options) error {
	p := &pass{opts: opts}
	for _, d := range f.Decls {
		if fd, ok := d.(*xmtc.FuncDecl); ok && fd.Body != nil {
			if err := xmtc.ReplaceSpawns(fd.Body, p.rewriteSpawn); err != nil {
				return err
			}
		}
	}
	// Outlining appends new functions; do it after the per-function
	// rewrites so indices stay stable.
	if !opts.DisableOutline {
		var newDecls []xmtc.Decl
		for _, d := range f.Decls {
			newDecls = append(newDecls, d)
			if fd, ok := d.(*xmtc.FuncDecl); ok && fd.Body != nil && !fd.IsOutlinedSpawn {
				outlined, err := p.outlineFunc(fd)
				if err != nil {
					return err
				}
				newDecls = append(newDecls, outlined...)
			}
		}
		f.Decls = newDecls
	}
	return nil
}

type pass struct {
	opts Options
	n    int // fresh-name counter
}

func (p *pass) fresh(prefix string) string {
	p.n++
	return fmt.Sprintf("__%s_%d", prefix, p.n)
}

// --- small AST constructors (types filled so sema need not re-run) ---

func mkInt(v int32) *xmtc.IntLit {
	e := &xmtc.IntLit{Val: int64(v)}
	e.Typ = xmtc.TypeInt
	return e
}

func mkIdent(sym *xmtc.Symbol) *xmtc.Ident {
	e := &xmtc.Ident{Name: sym.Name, Sym: sym}
	e.Typ = sym.Type
	return e
}

func mkBin(op xmtc.Tok, x, y xmtc.Expr, t *xmtc.Type) *xmtc.Binary {
	e := &xmtc.Binary{Op: op, X: x, Y: y}
	e.Typ = t
	return e
}

func mkAssign(lhs, rhs xmtc.Expr) *xmtc.Assign {
	e := &xmtc.Assign{Op: xmtc.ASSIGN, LHS: lhs, RHS: rhs}
	e.Typ = lhs.TypeOf()
	return e
}

func mkDeref(x xmtc.Expr) *xmtc.Unary {
	e := &xmtc.Unary{Op: xmtc.MUL, X: x}
	e.Typ = x.TypeOf().Elem
	return e
}

func mkAddr(x xmtc.Expr) *xmtc.Unary {
	e := &xmtc.Unary{Op: xmtc.AND, X: x}
	e.Typ = xmtc.PtrTo(x.TypeOf())
	return e
}

func mkLocal(name string, t *xmtc.Type, init xmtc.Expr) (*xmtc.DeclStmt, *xmtc.Symbol) {
	sym := &xmtc.Symbol{Name: name, Kind: xmtc.SymLocal, Type: t}
	vd := &xmtc.VarDecl{Name: name, Type: t, Init: init, Sym: sym}
	sym.Def = vd
	return &xmtc.DeclStmt{Decl: vd}, sym
}

// rewriteSpawn handles one spawn statement: serialization of nested
// spawns first (bottom-up), then optional clustering.
func (p *pass) rewriteSpawn(sp *xmtc.SpawnStmt) (xmtc.Stmt, error) {
	// First rewrite spawns nested inside this one (they are marked
	// Serialize by sema).
	if err := xmtc.ReplaceSpawns(sp.Body, p.rewriteSpawn); err != nil {
		return nil, err
	}
	if sp.Serialize {
		return p.serializeSpawn(sp)
	}
	factor := sp.Cluster
	if factor <= 1 {
		factor = p.opts.ClusterFactor
	}
	if factor > 1 {
		return p.clusterSpawn(sp, factor)
	}
	return sp, nil
}

// serializeSpawn turns a nested spawn into a serial loop:
//
//	{ int $i; for ($i = low; $i <= high; $i++) { body[$ -> $i] } }
func (p *pass) serializeSpawn(sp *xmtc.SpawnStmt) (xmtc.Stmt, error) {
	decl, iv := mkLocal(p.fresh("sid"), xmtc.TypeInt, nil)
	rewriteTid(sp.Body, iv)
	loop := &xmtc.ForStmt{
		Init: &xmtc.ExprStmt{X: mkAssign(mkIdent(iv), sp.Low)},
		Cond: mkBin(xmtc.LE, mkIdent(iv), sp.High, xmtc.TypeInt),
		Post: &xmtc.IncDec{Op: xmtc.INC, Pre: true, X: mkIdent(iv)},
		Body: sp.Body,
	}
	loop.Pos = sp.Pos
	blk := &xmtc.BlockStmt{List: []xmtc.Stmt{decl, loop}}
	blk.Pos = sp.Pos
	return blk, nil
}

// clusterSpawn applies virtual-thread clustering by the given factor:
//
//	{ int lo = low; int hi = high;
//	  spawn(0, (hi-lo)/factor) {
//	    int k; int base = lo + $*factor;
//	    int top = base+factor-1; if (top > hi) top = hi;
//	    for (k = base; k <= top; k++) { body[$ -> k] }
//	  } }
//
// Combining multiple short virtual threads into a loop reduces scheduling
// overhead and enables loop prefetching and value reuse (paper §IV-C).
func (p *pass) clusterSpawn(sp *xmtc.SpawnStmt, factor int) (xmtc.Stmt, error) {
	loD, lo := mkLocal(p.fresh("clo"), xmtc.TypeInt, sp.Low)
	hiD, hi := mkLocal(p.fresh("chi"), xmtc.TypeInt, sp.High)
	kD, k := mkLocal(p.fresh("ck"), xmtc.TypeInt, nil)

	rewriteTid(sp.Body, k)

	tid := &xmtc.TidExpr{}
	tid.Typ = xmtc.TypeInt
	baseInit := mkBin(xmtc.ADD, mkIdent(lo),
		mkBin(xmtc.MUL, tid, mkInt(int32(factor)), xmtc.TypeInt), xmtc.TypeInt)
	baseD, bsym := mkLocal(p.fresh("cbase"), xmtc.TypeInt, baseInit)
	topD, tsym := mkLocal(p.fresh("ctop"), xmtc.TypeInt,
		mkBin(xmtc.ADD, mkIdent(bsym), mkInt(int32(factor-1)), xmtc.TypeInt))
	clamp := &xmtc.IfStmt{
		Cond: mkBin(xmtc.GT, mkIdent(tsym), mkIdent(hi), xmtc.TypeInt),
		Then: &xmtc.ExprStmt{X: mkAssign(mkIdent(tsym), mkIdent(hi))},
	}
	loop := &xmtc.ForStmt{
		Init: &xmtc.ExprStmt{X: mkAssign(mkIdent(k), mkIdent(bsym))},
		Cond: mkBin(xmtc.LE, mkIdent(k), mkIdent(tsym), xmtc.TypeInt),
		Post: &xmtc.IncDec{Op: xmtc.INC, Pre: true, X: mkIdent(k)},
		Body: sp.Body,
	}
	newBody := &xmtc.BlockStmt{List: []xmtc.Stmt{kD, baseD, topD, clamp, loop}}
	newBody.Pos = sp.Pos

	groups := mkBin(xmtc.DIV,
		mkBin(xmtc.SUB, mkIdent(hi), mkIdent(lo), xmtc.TypeInt),
		mkInt(int32(factor)), xmtc.TypeInt)
	newSpawn := &xmtc.SpawnStmt{Low: mkInt(0), High: groups, Body: newBody}
	newSpawn.Pos = sp.Pos

	blk := &xmtc.BlockStmt{List: []xmtc.Stmt{loD, hiD, newSpawn}}
	blk.Pos = sp.Pos
	return blk, nil
}

// rewriteTid replaces $ with a reference to sym throughout a subtree
// (without descending into nested spawn statements, whose $ is their own).
func rewriteTid(s xmtc.Stmt, sym *xmtc.Symbol) {
	xmtc.RewriteExprs(s, func(e xmtc.Expr) xmtc.Expr {
		if _, ok := e.(*xmtc.TidExpr); ok {
			return mkIdent(sym)
		}
		return e
	}, false)
}
