package xmtc

// Walking the tree. children is the one place that knows which node has
// which children; every traversal below is built on it, and so are the
// passes outside this package that only need to reach nodes (the pre-pass
// rewriters, codegen's frame-slot scan, the analyzer's queries). Passes
// whose visit order is part of what they compute — sema, Render, codegen
// lowering, the analyzer's CFG builder and its volatile re-read walker —
// keep their own switches.

// children hands each direct child of n to the callbacks in source order.
// Expressions and statements come by slot, so a rewriter can replace them;
// declarations, case clauses and blocks held by pointer come as nodes.
// Empty slots are skipped.
func children(n Node, expr func(*Expr), stmt func(*Stmt), node func(Node)) {
	switch n := n.(type) {
	case *File:
		for _, d := range n.Decls {
			node(d)
		}
	case *VarDecl:
		exprSlot(&n.Init, expr)
		exprSlots(n.InitList, expr)
	case *FuncDecl:
		for _, p := range n.Params {
			node(p)
		}
		if n.Body != nil {
			node(n.Body)
		}
	case *BlockStmt:
		stmtSlots(n.List, stmt)
	case *DeclStmt:
		node(n.Decl)
	case *ExprStmt:
		exprSlot(&n.X, expr)
	case *IfStmt:
		exprSlot(&n.Cond, expr)
		stmtSlot(&n.Then, stmt)
		stmtSlot(&n.Else, stmt)
	case *WhileStmt:
		exprSlot(&n.Cond, expr)
		stmtSlot(&n.Body, stmt)
	case *DoStmt:
		stmtSlot(&n.Body, stmt)
		exprSlot(&n.Cond, expr)
	case *ForStmt:
		stmtSlot(&n.Init, stmt)
		exprSlot(&n.Cond, expr)
		exprSlot(&n.Post, expr)
		stmtSlot(&n.Body, stmt)
	case *SwitchStmt:
		exprSlot(&n.Tag, expr)
		for _, cl := range n.Cases {
			node(cl)
		}
	case *CaseClause:
		stmtSlots(n.Body, stmt)
	case *ReturnStmt:
		exprSlot(&n.X, expr)
	case *SpawnStmt:
		exprSlot(&n.Low, expr)
		exprSlot(&n.High, expr)
		if n.Body != nil {
			node(n.Body)
		}
	case *Binary:
		exprSlot(&n.X, expr)
		exprSlot(&n.Y, expr)
	case *Unary:
		exprSlot(&n.X, expr)
	case *Assign:
		exprSlot(&n.LHS, expr)
		exprSlot(&n.RHS, expr)
	case *IncDec:
		exprSlot(&n.X, expr)
	case *Cond:
		exprSlot(&n.C, expr)
		exprSlot(&n.T, expr)
		exprSlot(&n.F, expr)
	case *Call:
		exprSlots(n.Args, expr)
	case *Index:
		exprSlot(&n.X, expr)
		exprSlot(&n.I, expr)
	case *Member:
		exprSlot(&n.X, expr)
	case *Cast:
		exprSlot(&n.X, expr)
	case *SizeofExpr:
		exprSlot(&n.OfExpr, expr)
	}
}

func exprSlot(e *Expr, f func(*Expr)) {
	if *e != nil {
		f(e)
	}
}

func stmtSlot(s *Stmt, f func(*Stmt)) {
	if *s != nil {
		f(s)
	}
}

func exprSlots(list []Expr, f func(*Expr)) {
	for i := range list {
		exprSlot(&list[i], f)
	}
}

func stmtSlots(list []Stmt, f func(*Stmt)) {
	for i := range list {
		stmtSlot(&list[i], f)
	}
}

func noExpr(*Expr) {}
func noStmt(*Stmt) {}
func noNode(Node)  {}

// Inspect visits n and everything below it in pre-order, children in
// source order. It does not visit the children of a node for which f
// returns false. A nil n is not visited.
func Inspect(n Node, f func(Node) bool) {
	if n == nil || !f(n) {
		return
	}
	children(n,
		func(e *Expr) { Inspect(*e, f) },
		func(s *Stmt) { Inspect(*s, f) },
		func(c Node) { Inspect(c, f) })
}

// EachExpr calls fn on every expression under n in pre-order. Below a
// statement or declaration it goes statement by statement: a node's own
// expressions come before those of the statements nested in it, so a for
// loop yields its Cond and Post before its Init and Body, and a do loop
// its Cond before its Body.
func EachExpr(n Node, fn func(Expr)) {
	if e, ok := n.(Expr); ok {
		Inspect(e, func(x Node) bool {
			fn(x.(Expr))
			return true
		})
		return
	}
	if n == nil {
		return
	}
	children(n, func(e *Expr) { EachExpr(*e, fn) }, noStmt, noNode)
	children(n, noExpr, func(s *Stmt) { EachExpr(*s, fn) }, func(c Node) { EachExpr(c, fn) })
}

// RewriteExpr replaces every expression of the tree e, children before
// their parent, by fn's result, and returns the replacement of e.
func RewriteExpr(e Expr, fn func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	children(e, func(c *Expr) { *c = RewriteExpr(*c, fn) }, noStmt, noNode)
	return fn(e)
}

// RewriteExprs applies RewriteExpr to every expression tree under s, in
// source order. Unless intoSpawn is set it leaves spawn statements alone
// (a nested spawn's $ is its own).
func RewriteExprs(s Stmt, fn func(Expr) Expr, intoSpawn bool) {
	var visit func(Node)
	visit = func(n Node) {
		if _, ok := n.(*SpawnStmt); ok && !intoSpawn {
			return
		}
		children(n,
			func(e *Expr) { *e = RewriteExpr(*e, fn) },
			func(s *Stmt) { visit(*s) },
			visit)
	}
	visit(s)
}

// ReplaceSpawns hands each spawn statement under s to fn in source order
// and puts fn's result in the spawn's place. It does not descend into the
// spawns it hands over, nor into their replacements, and stops at fn's
// first error.
func ReplaceSpawns(s Stmt, fn func(*SpawnStmt) (Stmt, error)) error {
	var err error
	var visit func(Node)
	slot := func(s *Stmt) {
		if err != nil {
			return
		}
		if sp, ok := (*s).(*SpawnStmt); ok {
			var repl Stmt
			if repl, err = fn(sp); err == nil {
				*s = repl
			}
			return
		}
		visit(*s)
	}
	visit = func(n Node) { children(n, noExpr, slot, visit) }
	visit(s)
	return err
}

// RootSym resolves the base symbol of an access path: the symbol behind x,
// x[i], x.f and x[i].f chains. It returns nil for pointer dereferences and
// other shapes whose aliasing is unknown.
func RootSym(e Expr) *Symbol {
	for {
		switch n := e.(type) {
		case *Ident:
			return n.Sym
		case *Index:
			e = n.X
		case *Member:
			if n.Arrow {
				return nil // through a pointer: aliasing unknown
			}
			e = n.X
		default:
			return nil
		}
	}
}

// Contains reports whether pred holds for e or any expression below it.
func Contains(e Expr, pred func(Expr) bool) bool {
	found := false
	Inspect(e, func(x Node) bool {
		found = found || pred(x.(Expr))
		return !found
	})
	return found
}

// ContainsTid reports whether e mentions $, the virtual thread id.
func ContainsTid(e Expr) bool {
	return Contains(e, func(x Expr) bool {
		_, ok := x.(*TidExpr)
		return ok
	})
}

// IsPrefixSum reports whether c is a ps or psm builtin call.
func (c *Call) IsPrefixSum() bool {
	return c.Builtin == BuiltinPs || c.Builtin == BuiltinPsm
}

// DeclaredIn collects the symbols declared anywhere under s, spawn bodies
// included: the spawn-private variables when s is a spawn body.
func DeclaredIn(s Stmt) map[*Symbol]bool {
	out := make(map[*Symbol]bool)
	Inspect(s, func(n Node) bool {
		if d, ok := n.(*DeclStmt); ok && d.Decl.Sym != nil {
			out[d.Decl.Sym] = true
		}
		_, isExpr := n.(Expr)
		return !isExpr
	})
	return out
}
