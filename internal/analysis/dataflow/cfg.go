// Package dataflow is the control-flow-graph and dataflow engine under the
// XMTC static analyzer: it lowers each function body to a per-function CFG
// of basic blocks whose contents are a linear stream of symbol references
// (reads, writes, prefix-sum syncs, call clobbers), and runs classic
// forward/backward dataflow over it — reaching definitions, liveness — plus
// the XMT-specific queries the checks in package analysis need: spawn-region
// membership, loop-carried dependence across virtual threads (a spawn body
// is modeled as a parallel loop with a carried back edge), affine `$`-index
// resolution through reaching definitions, and join reachability.
//
// The builder is deliberately faithful to the traversal order of the
// original AST-pattern checks: concatenating the Refs of Blocks in slice
// order reproduces the exact event order (including the prefix-sum counter
// values) the pre-CFG analyzer observed, so every suppression the old
// spawn-race check performed still holds; the CFG only ever adds precision.
// It also tolerates unchecked ASTs (nil symbols and types), because the
// spawn-dataflow escape check must run even when sema failed.
//
// Its consumers are the checks of package analysis: spawn-race (region
// reference streams, AffineIndex, TidDependent), spawn-dataflow (region
// escapes and private sets), ps-misuse (the reference stream's definitions
// and syncs in traversal order), volatile's spin-wait half and join-safety
// (SpinLoops), uninit-read (ReachingDefs) and dead-store (Liveness).
package dataflow

import (
	"xmtgo/internal/xmtc"
)

// RefKind classifies one entry of a block's reference stream.
type RefKind uint8

const (
	// RefUse reads a symbol (or an element of it).
	RefUse RefKind = iota
	// RefDef writes a symbol (or an element of it).
	RefDef
	// RefSync is a ps/psm call: a release/acquire ordering point.
	RefSync
	// RefClobber is a user function call: it may write any address-taken
	// local and any global, so definition tracking is cut conservatively.
	RefClobber
)

// Ref is one symbol reference in evaluation order. For an assignment the
// right-hand side's uses precede the left-hand side's definition, matching
// evaluation order (which is what point queries for reaching definitions
// and liveness need to get `x = x + 1` right).
type Ref struct {
	Kind  RefKind
	Sym   *xmtc.Symbol // nil for RefSync/RefClobber, or when sema failed
	Call  *xmtc.Call   // RefSync: the ps/psm call
	Expr  xmtc.Expr    // the access path expression (nil for sync/clobber)
	Index xmtc.Expr    // innermost array index of the path, nil for scalars
	RHS   xmtc.Expr    // RefDef: assigned expression, nil when opaque
	Pos   xmtc.Pos
	Text  string // rendered access path, for messages

	// Race-model context, mirroring the legacy scanner.
	ValueTid bool  // definition whose stored value mentions $
	GuardTid bool  // executes under a $-dependent condition
	Pinned   bool  // the guard pins $ to exactly PinnedTid
	PinVal   int32 // the pinned thread id when Pinned
	Compound bool  // hidden half of a compound assignment or ++/--
	SyncIdx  int   // prefix-sums seen before this ref, traversal order

	// Definition provenance.
	Decl    bool // definition produced by a declaration statement
	HasInit bool // the declaration had an initializer
	SyncDef bool // ps/psm writing the old base value into its increment
	Weak    bool // may-write (array element or clobber): generates, never kills
	RHSCall bool // the assigned expression contains a call (side effects)
}

// Block is one basic block. Blocks appear in Graph.Blocks in source
// traversal order (the legacy analyzer's walk order), not reverse postorder.
type Block struct {
	ID     int
	Pos    xmtc.Pos
	Refs   []Ref
	Succs  []*Block
	Preds  []*Block
	Region *Region // enclosing outermost spawn region, nil in serial code
}

// EscapeKind classifies control flow illegally leaving a spawn region.
type EscapeKind uint8

const (
	EscReturn EscapeKind = iota
	EscBreak
	EscContinue
)

// Escape records a return/break/continue whose target lies outside the
// spawn region it occurs in (the paper's Fig. 8 outlining bug class).
type Escape struct {
	Kind EscapeKind
	Pos  xmtc.Pos
}

// SpinLoop is a non-constant loop inside a spawn region whose condition is
// re-evaluated every iteration — the candidate shape for a spin-wait on a
// shared location (the join-safety and volatile checks inspect these).
type SpinLoop struct {
	Cond   xmtc.Expr
	Pos    xmtc.Pos
	Region *Region
	// Body is the loop body's span of Graph.Blocks: from the body's entry
	// block up to the for loop's post block, the do loop's condition
	// block or the while loop's exit block, dead blocks after a return,
	// break or continue included. The condition and a for loop's post
	// clause are not part of it.
	Body []*Block

	entry, end *Block // delimit Body until the blocks have IDs
}

// Region is one outermost spawn region. Nested spawns are serialized by the
// toolchain and folded into the enclosing region, exactly as the legacy
// checks did.
type Region struct {
	Spawn *xmtc.SpawnStmt
	Entry *Block // first block of the body
	Exit  *Block // the join: the block control reaches after the barrier
	// Blocks lists the region's blocks in traversal order.
	Blocks []*Block
	// SyncStart/SyncEnd delimit the function-wide sync counter over the
	// region, so SyncEnd-SyncStart is the region's prefix-sum count and
	// ref.SyncIdx-SyncStart is the legacy per-region "syncs before me".
	SyncStart, SyncEnd int
	Escapes            []Escape
	// Private are the symbols declared inside the body (per-thread storage).
	Private map[*xmtc.Symbol]bool
	// Low/High bounds when they fold to constants.
	LowConst, HighConst int32
	BoundsKnown         bool
}

// Syncs returns the number of prefix-sum sites in the region.
func (r *Region) Syncs() int { return r.SyncEnd - r.SyncStart }

// SingleThread reports whether the spawn provably starts exactly one
// virtual thread (spawn(k, k)), which cannot race with itself.
func (r *Region) SingleThread() bool {
	return r.BoundsKnown && r.LowConst == r.HighConst
}

// Graph is the CFG of one function.
type Graph struct {
	Fn     *xmtc.FuncDecl
	Blocks []*Block
	Entry  *Block
	Exit   *Block
	// Regions are the outermost spawn regions in traversal order.
	Regions []*Region
	// SpinLoops are candidate spin-wait loops inside regions.
	SpinLoops []SpinLoop
	// AddressTaken marks symbols whose address escapes (&x): definition
	// tracking for them is conservative.
	AddressTaken map[*xmtc.Symbol]bool
	TotalSyncs   int
}

// Build lowers one function body to its CFG. fn.Body must be non-nil.
func Build(fn *xmtc.FuncDecl) *Graph {
	g := &Graph{Fn: fn, AddressTaken: make(map[*xmtc.Symbol]bool)}
	b := &builder{g: g}
	g.Entry = b.enter(b.newBlock(fn.GetPos()))
	g.Exit = b.newBlock(fn.GetPos())
	b.stmt(fn.Body)
	b.edge(b.cur, g.Exit)
	b.place(g.Exit)
	for i := range g.SpinLoops {
		sl := &g.SpinLoops[i]
		sl.Body = g.Blocks[sl.entry.ID:sl.end.ID:sl.end.ID]
	}
	return g
}

// builder threads the walk state: the current block, the guard/pin stacks,
// the traversal-order sync counter and the break/continue targets.
type builder struct {
	g   *Graph
	cur *Block

	syncs    int
	guardTid int
	pins     []int32 // innermost pinned $ value last

	region *Region
	// loop/break depth inside the current region (escape classification).
	regionLoops  int
	regionBreaks int

	breakTargets    []*Block
	continueTargets []*Block
}

// newBlock creates a block without placing it in traversal order yet.
func (b *builder) newBlock(pos xmtc.Pos) *Block {
	return &Block{ID: -1, Pos: pos, Region: b.region}
}

// place appends a block at the current traversal position.
func (b *builder) place(blk *Block) *Block {
	blk.ID = len(b.g.Blocks)
	b.g.Blocks = append(b.g.Blocks, blk)
	if blk.Region != nil {
		blk.Region.Blocks = append(blk.Region.Blocks, blk)
	}
	return blk
}

// enter places blk and makes it the current block.
func (b *builder) enter(blk *Block) *Block {
	b.place(blk)
	b.cur = blk
	return blk
}

func (b *builder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// detach starts a fresh, unreachable block at the current position (after a
// return/break/continue): the legacy analyzer kept scanning statically dead
// code, so refs must still be emitted in order — just without a flow edge.
func (b *builder) detach(pos xmtc.Pos) {
	b.cur = b.enter(b.newBlock(pos))
	// Re-entering via enter() appended it; no predecessor edge on purpose.
}

func (b *builder) ref(r Ref) {
	r.SyncIdx = b.syncs
	r.GuardTid = r.GuardTid || b.guardTid > 0
	if len(b.pins) > 0 {
		r.Pinned = true
		r.PinVal = b.pins[len(b.pins)-1]
	}
	b.cur.Refs = append(b.cur.Refs, r)
}

// guarded runs body with cond's $-dependence pushed on the guard stack.
func (b *builder) guarded(cond xmtc.Expr, body func()) {
	tid := cond != nil && xmtc.ContainsTid(cond)
	if tid {
		b.guardTid++
	}
	body()
	if tid {
		b.guardTid--
	}
}

// pinnedTid recognizes conditions of the form `$ == k` / `k == $` for a
// constant k: inside the then-branch, exactly one virtual thread runs.
func pinnedTid(cond xmtc.Expr) (int32, bool) {
	bin, ok := cond.(*xmtc.Binary)
	if !ok || bin.Op != xmtc.EQ {
		return 0, false
	}
	if _, ok := bin.X.(*xmtc.TidExpr); ok {
		if v, ok := xmtc.FoldConst(bin.Y); ok {
			return v, true
		}
	}
	if _, ok := bin.Y.(*xmtc.TidExpr); ok {
		if v, ok := xmtc.FoldConst(bin.X); ok {
			return v, true
		}
	}
	return 0, false
}

// condConst folds a loop/branch condition: known reports whether it folded,
// val its truth value. A nil condition (for(;;)) folds to true.
func condConst(cond xmtc.Expr) (val, known bool) {
	if cond == nil {
		return true, true
	}
	if v, ok := xmtc.FoldConst(cond); ok {
		return v != 0, true
	}
	return false, false
}

func (b *builder) stmt(s xmtc.Stmt) {
	switch n := s.(type) {
	case *xmtc.BlockStmt:
		for _, st := range n.List {
			b.stmt(st)
		}
	case *xmtc.DeclStmt:
		b.declStmt(n)
	case *xmtc.ExprStmt:
		b.expr(n.X, false)
	case *xmtc.IfStmt:
		b.ifStmt(n)
	case *xmtc.WhileStmt:
		b.whileStmt(n)
	case *xmtc.DoStmt:
		b.doStmt(n)
	case *xmtc.ForStmt:
		b.forStmt(n)
	case *xmtc.SwitchStmt:
		b.switchStmt(n)
	case *xmtc.ReturnStmt:
		if n.X != nil {
			b.expr(n.X, false)
		}
		if b.region != nil {
			b.region.Escapes = append(b.region.Escapes, Escape{Kind: EscReturn, Pos: n.Pos})
		} else {
			b.edge(b.cur, b.g.Exit)
		}
		b.detach(n.Pos)
	case *xmtc.BreakStmt:
		if b.region != nil && b.regionBreaks == 0 {
			b.region.Escapes = append(b.region.Escapes, Escape{Kind: EscBreak, Pos: n.Pos})
		} else if len(b.breakTargets) > 0 {
			b.edge(b.cur, b.breakTargets[len(b.breakTargets)-1])
		}
		b.detach(n.Pos)
	case *xmtc.ContinueStmt:
		if b.region != nil && b.regionLoops == 0 {
			b.region.Escapes = append(b.region.Escapes, Escape{Kind: EscContinue, Pos: n.Pos})
		} else if len(b.continueTargets) > 0 {
			b.edge(b.cur, b.continueTargets[len(b.continueTargets)-1])
		}
		b.detach(n.Pos)
	case *xmtc.SpawnStmt:
		b.spawnStmt(n)
	}
}

func (b *builder) declStmt(n *xmtc.DeclStmt) {
	d := n.Decl
	hasInit := d.Init != nil || len(d.InitList) > 0
	if d.Init != nil {
		b.expr(d.Init, false)
	}
	for _, e := range d.InitList {
		b.expr(e, false)
	}
	if d.Sym != nil {
		b.ref(Ref{Kind: RefDef, Sym: d.Sym, RHS: d.Init, Pos: n.Pos,
			Decl: true, HasInit: hasInit,
			ValueTid: d.Init != nil && xmtc.ContainsTid(d.Init),
			RHSCall:  containsCall(d.Init)})
	}
}

func (b *builder) ifStmt(n *xmtc.IfStmt) {
	b.expr(n.Cond, false)
	condBlk := b.cur
	join := b.newBlock(n.Pos)
	tid := n.Cond != nil && xmtc.ContainsTid(n.Cond)
	if tid {
		b.guardTid++
	}
	pv, pinned := pinnedTid(n.Cond)

	thenBlk := b.newBlock(n.Then.GetPos())
	b.edge(condBlk, thenBlk)
	// The pin applies to the then-branch only: `if ($ == k)` proves exactly
	// one virtual thread executes it.
	if pinned {
		b.pins = append(b.pins, pv)
	}
	b.enter(thenBlk)
	b.stmt(n.Then)
	b.edge(b.cur, join)
	if pinned {
		b.pins = b.pins[:len(b.pins)-1]
	}
	if n.Else != nil {
		elseBlk := b.newBlock(n.Else.GetPos())
		b.edge(condBlk, elseBlk)
		b.enter(elseBlk)
		b.stmt(n.Else)
		b.edge(b.cur, join)
	} else {
		b.edge(condBlk, join)
	}
	if tid {
		b.guardTid--
	}
	b.enter(join)
}

func (b *builder) whileStmt(n *xmtc.WhileStmt) {
	head := b.newBlock(n.Pos)
	b.edge(b.cur, head)
	b.enter(head)
	b.expr(n.Cond, false)
	val, known := condConst(n.Cond)
	exit := b.newBlock(n.Pos)
	body := b.newBlock(n.Body.GetPos())
	if !known || val {
		b.edge(head, body)
	}
	if !known || !val {
		b.edge(head, exit)
	}
	b.noteSpin(n.Cond, n.Pos, known, body, exit)
	b.loopBody(exit, head, func() {
		b.guarded(n.Cond, func() {
			b.enter(body)
			b.stmt(n.Body)
		})
		b.edge(b.cur, head)
	})
	b.enter(exit)
}

func (b *builder) doStmt(n *xmtc.DoStmt) {
	body := b.newBlock(n.Body.GetPos())
	b.edge(b.cur, body)
	cond := b.newBlock(n.Pos)
	exit := b.newBlock(n.Pos)
	b.loopBody(exit, cond, func() {
		b.guarded(n.Cond, func() {
			b.enter(body)
			b.stmt(n.Body)
		})
		b.edge(b.cur, cond)
	})
	b.enter(cond)
	b.expr(n.Cond, false)
	val, known := condConst(n.Cond)
	if !known || val {
		b.edge(cond, body)
	}
	if !known || !val {
		b.edge(cond, exit)
	}
	b.noteSpin(n.Cond, n.Pos, known, body, cond)
	b.enter(exit)
}

func (b *builder) forStmt(n *xmtc.ForStmt) {
	if n.Init != nil {
		b.stmt(n.Init)
	}
	head := b.newBlock(n.Pos)
	b.edge(b.cur, head)
	b.enter(head)
	if n.Cond != nil {
		b.expr(n.Cond, false)
	}
	val, known := condConst(n.Cond)
	exit := b.newBlock(n.Pos)
	body := b.newBlock(n.Body.GetPos())
	post := b.newBlock(n.Pos)
	if !known || val {
		b.edge(head, body)
	}
	if !known || !val {
		b.edge(head, exit)
	}
	b.noteSpin(n.Cond, n.Pos, known, body, post)
	b.loopBody(exit, post, func() {
		b.guarded(n.Cond, func() {
			b.enter(body)
			b.stmt(n.Body)
			b.edge(b.cur, post)
			b.enter(post)
			if n.Post != nil {
				b.expr(n.Post, false)
			}
			b.edge(post, head)
		})
	})
	b.enter(exit)
}

func (b *builder) switchStmt(n *xmtc.SwitchStmt) {
	b.expr(n.Tag, false)
	tag := b.cur
	exit := b.newBlock(n.Pos)
	if b.region != nil {
		b.regionBreaks++
	}
	b.breakTargets = append(b.breakTargets, exit)
	b.guarded(n.Tag, func() {
		var prev *Block // fallthrough source
		hasDefault := false
		for _, cl := range n.Cases {
			if cl.IsDefault {
				hasDefault = true
			}
			caseBlk := b.newBlock(cl.Pos)
			b.edge(tag, caseBlk)
			if prev != nil {
				b.edge(prev, caseBlk)
			}
			b.enter(caseBlk)
			for _, st := range cl.Body {
				b.stmt(st)
			}
			prev = b.cur
		}
		if prev != nil {
			b.edge(prev, exit)
		}
		if !hasDefault {
			b.edge(tag, exit)
		}
	})
	b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
	if b.region != nil {
		b.regionBreaks--
	}
	b.enter(exit)
}

// loopBody runs fn with the loop's break/continue targets pushed and, when
// inside a spawn region, the escape depths bumped.
func (b *builder) loopBody(brk, cont *Block, fn func()) {
	if b.region != nil {
		b.regionLoops++
		b.regionBreaks++
	}
	b.breakTargets = append(b.breakTargets, brk)
	b.continueTargets = append(b.continueTargets, cont)
	fn()
	b.continueTargets = b.continueTargets[:len(b.continueTargets)-1]
	b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
	if b.region != nil {
		b.regionLoops--
		b.regionBreaks--
	}
}

// noteSpin records non-constant loops inside a region as spin candidates;
// the body spans the blocks from entry up to end.
func (b *builder) noteSpin(cond xmtc.Expr, pos xmtc.Pos, constCond bool, entry, end *Block) {
	if b.region == nil || constCond || cond == nil {
		return
	}
	b.g.SpinLoops = append(b.g.SpinLoops, SpinLoop{Cond: cond, Pos: pos, Region: b.region,
		entry: entry, end: end})
}

func (b *builder) spawnStmt(n *xmtc.SpawnStmt) {
	b.expr(n.Low, false)
	b.expr(n.High, false)
	if b.region != nil {
		// Nested spawn: serialized by the toolchain, same region.
		b.stmt(n.Body)
		return
	}
	r := &Region{Spawn: n, SyncStart: b.syncs, Private: xmtc.DeclaredIn(n.Body)}
	if lo, ok := xmtc.FoldConst(n.Low); ok {
		if hi, ok := xmtc.FoldConst(n.High); ok {
			r.LowConst, r.HighConst, r.BoundsKnown = lo, hi, true
		}
	}
	b.g.Regions = append(b.g.Regions, r)
	b.region = r

	body := b.newBlock(n.Body.GetPos())
	r.Entry = body
	b.edge(b.cur, body)
	b.enter(body)
	b.stmt(n.Body)
	last := b.cur
	r.SyncEnd = b.syncs
	b.region = nil
	exit := b.newBlock(n.Pos) // the join: serial code, outside the region
	r.Exit = exit
	// The join edge, plus the carried back edge: a spawn is a parallel
	// loop over $, so a value live at the body's end may be consumed by
	// another virtual thread's iteration.
	b.edge(last, exit)
	b.edge(last, body)
	b.enter(exit)
}

// expr emits the reference stream of one expression tree, in evaluation
// order. write applies to the root access path only.
func (b *builder) expr(e xmtc.Expr, write bool) {
	if e == nil {
		return
	}
	switch n := e.(type) {
	case *xmtc.Assign:
		if n.Op != xmtc.ASSIGN {
			// Compound assignment: the location is read, combined, written.
			b.access(n.LHS, RefUse, Ref{Compound: true})
			b.indexReads(n.LHS)
			b.expr(n.RHS, false)
			b.access(n.LHS, RefDef, Ref{Compound: true,
				ValueTid: xmtc.ContainsTid(n.RHS), RHSCall: containsCall(n.RHS)})
			return
		}
		b.expr(n.RHS, false)
		b.indexReads(n.LHS)
		b.access(n.LHS, RefDef, Ref{RHS: n.RHS,
			ValueTid: xmtc.ContainsTid(n.RHS), RHSCall: containsCall(n.RHS)})
	case *xmtc.IncDec:
		b.access(n.X, RefUse, Ref{Compound: true})
		b.indexReads(n.X)
		b.access(n.X, RefDef, Ref{Compound: true})
	case *xmtc.Call:
		if n.IsPrefixSum() && len(n.Args) >= 2 {
			// The prefix-sum is the ordering operation itself: its base is
			// updated atomically at the ps unit / cache module, so it is not
			// a plain access. Index sub-expressions of the base are ordinary
			// reads; the increment is read and overwritten with the old base.
			b.ref(Ref{Kind: RefSync, Call: n, Pos: n.GetPos()})
			b.syncs++
			b.g.TotalSyncs++
			b.indexReads(n.Args[1])
			if id, ok := n.Args[0].(*xmtc.Ident); ok && id.Sym != nil &&
				(id.Sym.Kind == xmtc.SymLocal || id.Sym.Kind == xmtc.SymParam) {
				b.access(n.Args[0], RefUse, Ref{})
				b.access(n.Args[0], RefDef, Ref{SyncDef: true})
			}
			return
		}
		for _, a := range n.Args {
			b.expr(a, false)
		}
		if n.Builtin == xmtc.NotBuiltin {
			b.ref(Ref{Kind: RefClobber, Pos: n.GetPos()})
		}
	case *xmtc.Unary:
		if n.Op == xmtc.AND {
			// Address taken: the path escapes reference tracking; remember
			// the root so definition analyses stay conservative about it.
			// Its index sub-expressions are still evaluated (the i of &A[i]).
			if sym := xmtc.RootSym(n.X); sym != nil {
				b.g.AddressTaken[sym] = true
			}
			b.indexReads(n.X)
			return
		}
		b.expr(n.X, false)
	case *xmtc.Binary:
		b.expr(n.X, false)
		b.expr(n.Y, false)
	case *xmtc.Cond:
		b.expr(n.C, false)
		b.guarded(n.C, func() {
			b.expr(n.T, false)
			b.expr(n.F, false)
		})
	case *xmtc.Cast:
		b.expr(n.X, false)
	case *xmtc.SizeofExpr:
		// Operand is not evaluated.
	case *xmtc.Ident, *xmtc.Index, *xmtc.Member:
		if write {
			b.access(e, RefDef, Ref{})
		} else {
			b.access(e, RefUse, Ref{})
		}
		b.indexReads(e)
	}
}

// access records a use or definition of an lvalue path, for any resolved
// symbol (the race check filters to globals itself).
func (b *builder) access(e xmtc.Expr, kind RefKind, tmpl Ref) {
	sym := xmtc.RootSym(e)
	if sym == nil {
		return
	}
	tmpl.Kind = kind
	tmpl.Sym = sym
	tmpl.Expr = e
	tmpl.Pos = e.GetPos()
	tmpl.Text = xmtc.RenderExpr(e)
	if ix, ok := innerIndex(e); ok {
		tmpl.Index = ix
		if kind == RefDef {
			tmpl.Weak = true // element write: may-def of the aggregate
		}
	}
	if _, isIdent := e.(*xmtc.Ident); !isIdent && tmpl.Index == nil && kind == RefDef {
		tmpl.Weak = true // member write: partial def of the aggregate
	}
	b.ref(tmpl)
}

// indexReads emits the reads performed by the index sub-expressions of an
// access path (the b in hist[b].count) and by the base it starts from when
// that is not a variable: the pointer a -> goes through, or an expression
// such as the p + 1 of (p + 1)[0].
func (b *builder) indexReads(e xmtc.Expr) {
	switch n := e.(type) {
	case *xmtc.Index:
		b.expr(n.I, false)
		b.indexReads(n.X)
	case *xmtc.Member:
		if n.Arrow {
			b.expr(n.X, false)
		} else {
			b.indexReads(n.X)
		}
	case *xmtc.Ident:
	default:
		b.expr(e, false)
	}
}

// containsCall reports whether e calls a function or builtin.
func containsCall(e xmtc.Expr) bool {
	return xmtc.Contains(e, func(x xmtc.Expr) bool {
		_, ok := x.(*xmtc.Call)
		return ok
	})
}

// innerIndex returns the index of the innermost element access of an
// access path (the i of a[i].f).
func innerIndex(e xmtc.Expr) (xmtc.Expr, bool) {
	switch n := e.(type) {
	case *xmtc.Index:
		return n.I, true
	case *xmtc.Member:
		return innerIndex(n.X)
	}
	return nil, false
}
