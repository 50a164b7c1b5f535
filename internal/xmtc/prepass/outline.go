package prepass

import (
	"fmt"

	"xmtgo/internal/xmtc"
)

// outlineFunc extracts every spawn statement of fd into a new top-level
// function (Fig. 8): captured serial-scope variables are detected, passed
// by value when only read by the parallel code and by reference when it
// may write them, and the spawn statement is replaced by a call.
func (p *pass) outlineFunc(fd *xmtc.FuncDecl) ([]xmtc.Decl, error) {
	var out []xmtc.Decl
	err := xmtc.ReplaceSpawns(fd.Body, func(sp *xmtc.SpawnStmt) (xmtc.Stmt, error) {
		call, nfd, err := p.outlineOne(fd, sp, len(out))
		if err != nil {
			return nil, err
		}
		out = append(out, nfd)
		return call, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// capture describes one variable crossing the spawn boundary.
type capture struct {
	sym   *xmtc.Symbol
	byRef bool
	param *xmtc.Symbol // parameter symbol in the outlined function
}

// outlineOne builds the outlined function for one spawn statement and the
// replacement call.
func (p *pass) outlineOne(fd *xmtc.FuncDecl, sp *xmtc.SpawnStmt, idx int) (xmtc.Stmt, *xmtc.FuncDecl, error) {
	name := fmt.Sprintf("__outl_%s_%d", fd.Name, idx)

	// Private (spawn-local) declarations are not captures.
	private := xmtc.DeclaredIn(sp.Body)

	// Collect referenced serial-scope locals/params, in first-use order,
	// and which of them the spawn may write.
	var order []*xmtc.Symbol
	seen := make(map[*xmtc.Symbol]*capture)
	written := make(map[*xmtc.Symbol]bool)

	note := func(sym *xmtc.Symbol) {
		if sym == nil || private[sym] {
			return
		}
		if sym.Kind != xmtc.SymLocal && sym.Kind != xmtc.SymParam {
			return
		}
		if _, ok := seen[sym]; !ok {
			seen[sym] = &capture{sym: sym}
			order = append(order, sym)
		}
	}
	rootIdent := func(e xmtc.Expr) *xmtc.Symbol {
		if id, ok := e.(*xmtc.Ident); ok {
			return id.Sym
		}
		return nil
	}
	collect := func(n xmtc.Node) bool {
		switch n := n.(type) {
		case *xmtc.Ident:
			note(n.Sym)
		case *xmtc.Assign:
			if s := rootIdent(n.LHS); s != nil {
				written[s] = true
			}
		case *xmtc.IncDec:
			if s := rootIdent(n.X); s != nil {
				written[s] = true
			}
		case *xmtc.Unary:
			if n.Op == xmtc.AND {
				if s := rootIdent(n.X); s != nil {
					written[s] = true // address escapes: be conservative
				}
			}
		case *xmtc.Call:
			// ps/psm write their increment argument.
			if n.IsPrefixSum() {
				if s := rootIdent(n.Args[0]); s != nil {
					written[s] = true
				}
			}
		}
		return true
	}
	xmtc.Inspect(sp.Body, collect)
	xmtc.Inspect(sp.Low, collect)
	xmtc.Inspect(sp.High, collect)

	// Classify captures and build parameters.
	nfd := &xmtc.FuncDecl{Name: name, Ret: xmtc.TypeVoid, IsOutlinedSpawn: true}
	nfd.Pos = sp.Pos
	var caps []*capture
	for _, sym := range order {
		c := seen[sym]
		var pt *xmtc.Type
		switch {
		case sym.Type.Kind == xmtc.KStruct:
			// Structs always travel by reference: TCUs hold a pointer to
			// the caller's storage.
			c.byRef = true
			pt = xmtc.PtrTo(sym.Type)
		case sym.Type.Kind == xmtc.KArray:
			// Arrays decay: passed by value as a pointer (writes through it
			// hit the caller's storage, like Fig. 8's array A).
			pt = xmtc.PtrTo(sym.Type.Elem)
		case written[sym] || sym.Type.Volatile:
			c.byRef = true
			pt = xmtc.PtrTo(sym.Type)
			// The ps/psm increment must stay a plain register variable; a
			// by-reference rewrite would break the primitive's contract.
			if isPsIncrement(sp, sym) {
				return nil, nil, &xmtc.Error{Pos: sp.Pos, Msg: fmt.Sprintf("ps/psm increment %q must be declared inside the spawn block (it is captured by reference)", sym.Name)}
			}
		default:
			pt = sym.Type
		}
		psym := &xmtc.Symbol{Name: "__cap_" + sym.Name, Kind: xmtc.SymParam, Type: pt}
		pd := &xmtc.VarDecl{Name: psym.Name, Type: pt, Sym: psym}
		pd.Pos = sp.Pos
		psym.Def = pd
		c.param = psym
		nfd.Params = append(nfd.Params, pd)
		caps = append(caps, c)
	}

	// Rewrite references inside the spawn (including bounds).
	rewrite := func(e xmtc.Expr) xmtc.Expr {
		id, ok := e.(*xmtc.Ident)
		if !ok {
			return e
		}
		c, ok := seen[id.Sym]
		if !ok {
			return e
		}
		if c.byRef {
			return mkDeref(mkIdent(c.param))
		}
		return mkIdent(c.param)
	}
	xmtc.RewriteExprs(sp.Body, rewrite, true)
	sp.Low = xmtc.RewriteExpr(sp.Low, rewrite)
	sp.High = xmtc.RewriteExpr(sp.High, rewrite)

	body := &xmtc.BlockStmt{List: []xmtc.Stmt{sp}}
	body.Pos = sp.Pos
	nfd.Body = body

	ft := &xmtc.Type{Kind: xmtc.KFunc, Ret: xmtc.TypeVoid}
	for _, pd := range nfd.Params {
		ft.Params = append(ft.Params, pd.Type)
	}
	nfd.Sym = &xmtc.Symbol{Name: name, Kind: xmtc.SymFunc, Type: ft, Def: nfd}

	// Build the replacement call.
	call := &xmtc.Call{Name: name, Sym: nfd.Sym}
	call.Typ = xmtc.TypeVoid
	call.Pos = sp.Pos
	for _, c := range caps {
		arg := xmtc.Expr(mkIdent(c.sym))
		if c.byRef {
			arg = mkAddr(mkIdent(c.sym))
		}
		call.Args = append(call.Args, arg)
	}
	st := &xmtc.ExprStmt{X: call}
	st.Pos = sp.Pos
	return st, nfd, nil
}

// isPsIncrement reports whether sym is used as a ps/psm increment inside
// the spawn.
func isPsIncrement(sp *xmtc.SpawnStmt, sym *xmtc.Symbol) bool {
	found := false
	xmtc.Inspect(sp.Body, func(n xmtc.Node) bool {
		if c, ok := n.(*xmtc.Call); ok && c.IsPrefixSum() {
			if id, ok := c.Args[0].(*xmtc.Ident); ok && id.Sym == sym {
				found = true
			}
		}
		return !found
	})
	return found
}
