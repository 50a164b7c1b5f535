// Package codegen is the back half of the XMTC compiler's core pass: it
// lowers the checked (and pre-passed) AST to IR, runs the optimizer under
// the XMT memory-model constraints, applies the XMT-specific optimizations
// (non-blocking stores, prefetch insertion, live-register broadcast), and
// performs register allocation and assembly emission. Register allocation
// for parallel code is done as if the code were serial (paper §IV-A), with
// the added rule that values inside a spawn region must never spill — the
// compiler "checks if the available registers suffice and produces a
// register spill error otherwise" (§IV-D).
package codegen

import (
	"fmt"

	"xmtgo/internal/ir"
	"xmtgo/internal/isa"
	"xmtgo/internal/xmtc"
)

// lowerer converts one function to IR.
type lowerer struct {
	cg  *Compiler
	fn  *xmtc.FuncDecl
	f   *ir.Func
	cur *ir.Block

	locals   map[*xmtc.Symbol]ir.VReg // register-resident locals
	slots    map[*xmtc.Symbol]int32   // frame-resident locals: byte offsets
	needSlot map[*xmtc.Symbol]bool    // address-taken locals (pre-scan)

	breakT []*ir.Block
	contT  []*ir.Block

	spawnID int
	tidReg  ir.VReg
	// privates are symbols declared inside the current spawn body.
	privates map[*xmtc.Symbol]bool

	labelN int
}

func (lo *lowerer) errf(pos xmtc.Pos, format string, args ...any) error {
	return fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...))
}

func (lo *lowerer) label(prefix string) string {
	lo.labelN++
	return fmt.Sprintf("%s_%s_%d", prefix, lo.fn.Name, lo.labelN)
}

func (lo *lowerer) emit(in ir.Instr) {
	if in.A == 0 && in.B == 0 && in.Dst == 0 {
		// Zero-value instructions are fine; fields default to vreg 0 only
		// when explicitly set by callers.
	}
	lo.cur.Emit(in)
}

func (lo *lowerer) newBlock(prefix string) *ir.Block {
	b := lo.f.NewBlock(lo.label(prefix))
	b.SpawnID = lo.spawnID
	return b
}

// lowerFunc builds the IR for one function definition.
func (cg *Compiler) lowerFunc(fd *xmtc.FuncDecl) (*ir.Func, error) {
	lo := &lowerer{
		cg:       cg,
		fn:       fd,
		f:        &ir.Func{Name: fd.Name, NumArgs: len(fd.Params), RetVoid: fd.Ret.Kind == xmtc.KVoid},
		locals:   make(map[*xmtc.Symbol]ir.VReg),
		slots:    make(map[*xmtc.Symbol]int32),
		privates: make(map[*xmtc.Symbol]bool),
	}
	entry := lo.f.NewBlock("entry_" + fd.Name)
	lo.cur = entry

	// Decide which locals need memory (frame slots): address-taken,
	// arrays, or volatile.
	lo.needSlot = make(map[*xmtc.Symbol]bool)
	collectSlotLocals(fd.Body, lo.needSlot)
	for _, p := range fd.Params {
		if lo.needSlot[p.Sym] {
			lo.addSlot(p.Sym)
		}
	}

	// Bind parameters.
	for i, p := range fd.Params {
		v := lo.f.NewVReg()
		lo.f.ArgRegs = append(lo.f.ArgRegs, v)
		_ = i
		if off, isSlot := lo.slots[p.Sym]; isSlot {
			addr := lo.f.NewVReg()
			lo.emit(ir.Instr{Op: ir.FrameAddr, Dst: addr, Imm: off, A: ir.NoReg, B: ir.NoReg})
			lo.emit(ir.Instr{Op: ir.Store, A: addr, B: v, Imm: 0, Size: 4})
		} else {
			lo.locals[p.Sym] = v
		}
	}

	if err := lo.stmt(fd.Body); err != nil {
		return nil, err
	}
	// Implicit return.
	if !lo.cur.Terminated() {
		lo.emit(ir.Instr{Op: ir.Ret, A: ir.NoReg, B: ir.NoReg, Dst: ir.NoReg})
	}
	return lo.f, nil
}

// collectSlotLocals finds locals that must live in memory.
func collectSlotLocals(s xmtc.Stmt, out map[*xmtc.Symbol]bool) {
	xmtc.Inspect(s, func(n xmtc.Node) bool {
		switch n := n.(type) {
		case *xmtc.SizeofExpr:
			return false // the operand is never evaluated
		case *xmtc.Unary:
			if n.Op == xmtc.AND {
				if id, ok := n.X.(*xmtc.Ident); ok && id.Sym != nil &&
					(id.Sym.Kind == xmtc.SymLocal || id.Sym.Kind == xmtc.SymParam) &&
					id.Sym.Type.Kind != xmtc.KArray {
					out[id.Sym] = true
				}
			}
		case *xmtc.DeclStmt:
			if n.Decl.Type.Kind == xmtc.KArray || n.Decl.Type.Kind == xmtc.KStruct || n.Decl.Type.Volatile {
				out[n.Decl.Sym] = true
			}
		}
		return true
	})
}

func (lo *lowerer) addSlot(sym *xmtc.Symbol) int32 {
	size := sym.Type.Size()
	align := sym.Type.Align()
	off := (lo.f.FrameLocals + align - 1) &^ (align - 1)
	lo.f.FrameLocals = off + size
	lo.slots[sym] = off
	return off
}

// --- statements ---

func (lo *lowerer) stmt(s xmtc.Stmt) error {
	switch n := s.(type) {
	case *xmtc.BlockStmt:
		for _, st := range n.List {
			if err := lo.stmt(st); err != nil {
				return err
			}
		}
		return nil
	case *xmtc.EmptyStmt:
		return nil
	case *xmtc.DeclStmt:
		return lo.declStmt(n)
	case *xmtc.ExprStmt:
		_, err := lo.expr(n.X)
		return err
	case *xmtc.IfStmt:
		return lo.ifStmt(n)
	case *xmtc.WhileStmt:
		return lo.whileStmt(n)
	case *xmtc.DoStmt:
		return lo.doStmt(n)
	case *xmtc.ForStmt:
		return lo.forStmt(n)
	case *xmtc.BreakStmt:
		if len(lo.breakT) == 0 {
			return lo.errf(n.Pos, "break outside loop")
		}
		lo.emit(ir.Instr{Op: ir.Jmp, Target: lo.breakT[len(lo.breakT)-1], A: ir.NoReg, B: ir.NoReg, Line: n.Pos.Line})
		lo.cur = lo.newBlock("dead")
		return nil
	case *xmtc.ContinueStmt:
		if len(lo.contT) == 0 {
			return lo.errf(n.Pos, "continue outside loop")
		}
		lo.emit(ir.Instr{Op: ir.Jmp, Target: lo.contT[len(lo.contT)-1], A: ir.NoReg, B: ir.NoReg, Line: n.Pos.Line})
		lo.cur = lo.newBlock("dead")
		return nil
	case *xmtc.ReturnStmt:
		if n.X == nil {
			lo.emit(ir.Instr{Op: ir.Ret, A: ir.NoReg, B: ir.NoReg, Dst: ir.NoReg, Line: n.Pos.Line})
		} else {
			v, err := lo.exprConv(n.X, lo.fn.Ret)
			if err != nil {
				return err
			}
			lo.emit(ir.Instr{Op: ir.Ret, A: v, B: ir.NoReg, Dst: ir.NoReg, Line: n.Pos.Line})
		}
		lo.cur = lo.newBlock("dead")
		return nil
	case *xmtc.SwitchStmt:
		return lo.switchStmt(n)
	case *xmtc.SpawnStmt:
		return lo.spawnStmt(n)
	}
	return lo.errf(s.GetPos(), "internal: cannot lower %T", s)
}

// switchStmt lowers a C switch: a compare-and-branch dispatch chain into
// the clause bodies, which are laid out in order so C fallthrough is the
// natural control flow; break targets the end block.
func (lo *lowerer) switchStmt(n *xmtc.SwitchStmt) error {
	line := n.Pos.Line
	tag, err := lo.exprConv(n.Tag, xmtc.TypeInt)
	if err != nil {
		return err
	}
	bodies := make([]*ir.Block, len(n.Cases))
	for i := range n.Cases {
		bodies[i] = lo.newBlock("case")
	}
	end := lo.newBlock("swend")

	// Dispatch chain (explicitly terminated, so later block creation
	// cannot break fallthrough).
	for i, cl := range n.Cases {
		for _, v := range cl.Values {
			c := lo.f.NewVReg()
			lo.emit(ir.Instr{Op: ir.LdImm, Dst: c, Imm: v, A: ir.NoReg, B: ir.NoReg, Line: line})
			lo.emit(ir.Instr{Op: ir.Br, Cond: ir.BrEQ, A: tag, B: c, Target: bodies[i], Dst: ir.NoReg, Line: line})
		}
	}
	if n.Default >= 0 {
		lo.emit(ir.Instr{Op: ir.Jmp, Target: bodies[n.Default], A: ir.NoReg, B: ir.NoReg, Line: line})
	} else {
		lo.emit(ir.Instr{Op: ir.Jmp, Target: end, A: ir.NoReg, B: ir.NoReg, Line: line})
	}

	lo.breakT = append(lo.breakT, end)
	for i, cl := range n.Cases {
		lo.cur = bodies[i]
		for _, st := range cl.Body {
			if err := lo.stmt(st); err != nil {
				lo.breakT = lo.breakT[:len(lo.breakT)-1]
				return err
			}
		}
		if !lo.cur.Terminated() {
			// C fallthrough into the next clause (or the end).
			next := end
			if i+1 < len(bodies) {
				next = bodies[i+1]
			}
			lo.emit(ir.Instr{Op: ir.Jmp, Target: next, A: ir.NoReg, B: ir.NoReg, Line: line})
		}
	}
	lo.breakT = lo.breakT[:len(lo.breakT)-1]
	lo.moveBlockToEnd(end)
	lo.cur = end
	return nil
}

func (lo *lowerer) declStmt(n *xmtc.DeclStmt) error {
	d := n.Decl
	sym := d.Sym
	if lo.spawnID > 0 {
		lo.privates[sym] = true
	}
	if d.Type.Kind == xmtc.KArray || d.Type.Kind == xmtc.KStruct || d.Type.Volatile || lo.isSlotCandidate(sym) {
		if lo.spawnID > 0 {
			return lo.errf(d.Pos, "%q requires stack storage inside parallel code (no parallel stack in this release)", d.Name)
		}
		if _, ok := lo.slots[sym]; !ok {
			lo.addSlot(sym)
		}
		if d.Init != nil {
			v, err := lo.exprConv(d.Init, d.Type)
			if err != nil {
				return err
			}
			addr := lo.f.NewVReg()
			lo.emit(ir.Instr{Op: ir.FrameAddr, Dst: addr, Imm: lo.slots[sym], A: ir.NoReg, B: ir.NoReg})
			lo.storeTo(addr, 0, d.Type, v, d.Pos.Line)
		}
		for i, e := range d.InitList {
			v, err := lo.exprConv(e, d.Type.Elem)
			if err != nil {
				return err
			}
			addr := lo.f.NewVReg()
			lo.emit(ir.Instr{Op: ir.FrameAddr, Dst: addr, Imm: lo.slots[sym], A: ir.NoReg, B: ir.NoReg})
			lo.storeTo(addr, int32(i)*d.Type.Elem.Size(), d.Type.Elem, v, d.Pos.Line)
		}
		return nil
	}
	v := lo.f.NewVReg()
	lo.locals[sym] = v
	if d.Init != nil {
		iv, err := lo.exprConv(d.Init, d.Type)
		if err != nil {
			return err
		}
		lo.emit(ir.Instr{Op: ir.Mov, Dst: v, A: iv, B: ir.NoReg, Line: d.Pos.Line})
	} else {
		lo.emit(ir.Instr{Op: ir.LdImm, Dst: v, Imm: 0, A: ir.NoReg, B: ir.NoReg, Line: d.Pos.Line})
	}
	return nil
}

// isSlotCandidate consults the pre-scan (address-taken locals).
func (lo *lowerer) isSlotCandidate(sym *xmtc.Symbol) bool {
	if lo.needSlot[sym] {
		return true
	}
	_, ok := lo.slots[sym]
	return ok
}

func (lo *lowerer) ifStmt(n *xmtc.IfStmt) error {
	thenB := lo.newBlock("then")
	elseB := thenB
	endB := lo.newBlock("endif")
	if n.Else != nil {
		elseB = lo.newBlock("else")
	}
	// Blocks are created in layout order: then, endif[, else]. Reorder so
	// layout is then .. else .. endif.
	lo.reorderTail(n.Else != nil)
	if err := lo.cond(n.Cond, thenB, elseBOrEnd(elseB, endB, n.Else != nil)); err != nil {
		return err
	}
	lo.cur = thenB
	if err := lo.stmt(n.Then); err != nil {
		return err
	}
	if !lo.cur.Terminated() {
		lo.emit(ir.Instr{Op: ir.Jmp, Target: endB, A: ir.NoReg, B: ir.NoReg})
	}
	if n.Else != nil {
		lo.cur = elseB
		if err := lo.stmt(n.Else); err != nil {
			return err
		}
		if !lo.cur.Terminated() {
			lo.emit(ir.Instr{Op: ir.Jmp, Target: endB, A: ir.NoReg, B: ir.NoReg})
		}
	}
	lo.cur = endB
	return nil
}

func elseBOrEnd(elseB, endB *ir.Block, hasElse bool) *ir.Block {
	if hasElse {
		return elseB
	}
	return endB
}

// reorderTail fixes the layout order of the last blocks created by ifStmt
// so fallthrough chains stay natural: [then, endif, else] -> [then, else,
// endif].
func (lo *lowerer) reorderTail(hasElse bool) {
	if !hasElse {
		return
	}
	n := len(lo.f.Blocks)
	// current tail: ..., then, endif, else
	lo.f.Blocks[n-2], lo.f.Blocks[n-1] = lo.f.Blocks[n-1], lo.f.Blocks[n-2]
	for i, b := range lo.f.Blocks {
		b.ID = i
	}
}

func (lo *lowerer) whileStmt(n *xmtc.WhileStmt) error {
	head := lo.newBlock("while")
	body := lo.newBlock("wbody")
	end := lo.newBlock("wend")
	lo.emit(ir.Instr{Op: ir.Jmp, Target: head, A: ir.NoReg, B: ir.NoReg})
	lo.cur = head
	if err := lo.cond(n.Cond, body, end); err != nil {
		return err
	}
	lo.cur = body
	lo.breakT = append(lo.breakT, end)
	lo.contT = append(lo.contT, head)
	err := lo.stmt(n.Body)
	lo.breakT = lo.breakT[:len(lo.breakT)-1]
	lo.contT = lo.contT[:len(lo.contT)-1]
	if err != nil {
		return err
	}
	if !lo.cur.Terminated() {
		lo.emit(ir.Instr{Op: ir.Jmp, Target: head, A: ir.NoReg, B: ir.NoReg})
	}
	lo.moveBlockToEnd(end)
	lo.cur = end
	return nil
}

// moveBlockToEnd puts b last in layout (it was created before body blocks).
func (lo *lowerer) moveBlockToEnd(b *ir.Block) {
	var rest []*ir.Block
	for _, x := range lo.f.Blocks {
		if x != b {
			rest = append(rest, x)
		}
	}
	lo.f.Blocks = append(rest, b)
	for i, x := range lo.f.Blocks {
		x.ID = i
	}
}

func (lo *lowerer) doStmt(n *xmtc.DoStmt) error {
	body := lo.newBlock("dobody")
	cond := lo.newBlock("docond")
	end := lo.newBlock("doend")
	lo.emit(ir.Instr{Op: ir.Jmp, Target: body, A: ir.NoReg, B: ir.NoReg})
	lo.cur = body
	lo.breakT = append(lo.breakT, end)
	lo.contT = append(lo.contT, cond)
	err := lo.stmt(n.Body)
	lo.breakT = lo.breakT[:len(lo.breakT)-1]
	lo.contT = lo.contT[:len(lo.contT)-1]
	if err != nil {
		return err
	}
	if !lo.cur.Terminated() {
		lo.emit(ir.Instr{Op: ir.Jmp, Target: cond, A: ir.NoReg, B: ir.NoReg})
	}
	lo.moveBlockToEnd(cond)
	lo.moveBlockToEnd(end)
	lo.cur = cond
	if err := lo.cond(n.Cond, body, end); err != nil {
		return err
	}
	lo.cur = end
	return nil
}

func (lo *lowerer) forStmt(n *xmtc.ForStmt) error {
	if n.Init != nil {
		if err := lo.stmt(n.Init); err != nil {
			return err
		}
	}
	head := lo.newBlock("for")
	body := lo.newBlock("fbody")
	post := lo.newBlock("fpost")
	end := lo.newBlock("fend")
	lo.emit(ir.Instr{Op: ir.Jmp, Target: head, A: ir.NoReg, B: ir.NoReg})
	lo.cur = head
	if n.Cond != nil {
		if err := lo.cond(n.Cond, body, end); err != nil {
			return err
		}
	} else {
		lo.emit(ir.Instr{Op: ir.Jmp, Target: body, A: ir.NoReg, B: ir.NoReg})
	}
	lo.cur = body
	lo.breakT = append(lo.breakT, end)
	lo.contT = append(lo.contT, post)
	err := lo.stmt(n.Body)
	lo.breakT = lo.breakT[:len(lo.breakT)-1]
	lo.contT = lo.contT[:len(lo.contT)-1]
	if err != nil {
		return err
	}
	if !lo.cur.Terminated() {
		lo.emit(ir.Instr{Op: ir.Jmp, Target: post, A: ir.NoReg, B: ir.NoReg})
	}
	lo.moveBlockToEnd(post)
	lo.cur = post
	if n.Post != nil {
		if _, err := lo.expr(n.Post); err != nil {
			return err
		}
	}
	lo.emit(ir.Instr{Op: ir.Jmp, Target: head, A: ir.NoReg, B: ir.NoReg})
	lo.moveBlockToEnd(end)
	lo.cur = end
	return nil
}

// spawnStmt lowers a parallel spawn into the XMT protocol (paper §IV-D):
// the master evaluates the bounds and executes spawn; each TCU repeatedly
// grabs a virtual thread id with ps on the dedicated spawn counter,
// validates it with chkid (which blocks the TCU when the ids are
// exhausted), runs the body, and loops back.
func (lo *lowerer) spawnStmt(n *xmtc.SpawnStmt) error {
	if lo.spawnID > 0 {
		return lo.errf(n.Pos, "internal: nested spawn survived the pre-pass")
	}
	low, err := lo.exprConv(n.Low, xmtc.TypeInt)
	if err != nil {
		return err
	}
	high, err := lo.exprConv(n.High, xmtc.TypeInt)
	if err != nil {
		return err
	}
	lo.f.SpawnCount++
	id := lo.f.SpawnCount

	// The spawn instruction gets a fresh block at the current end of the
	// layout so the broadcast region (spawn .. join) is a contiguous run
	// of blocks in the emitted assembly.
	preB := lo.newBlock("prespawn")
	lo.emit(ir.Instr{Op: ir.Jmp, Target: preB, A: ir.NoReg, B: ir.NoReg, Line: n.Pos.Line})
	lo.cur = preB
	lo.emit(ir.Instr{Op: ir.Spawn, A: low, B: high, Imm: int32(id), Dst: ir.NoReg, Line: n.Pos.Line})

	lo.spawnID = id
	lo.privates = make(map[*xmtc.Symbol]bool)
	grab := lo.newBlock("grab")
	lo.cur = grab
	one := lo.f.NewVReg()
	lo.emit(ir.Instr{Op: ir.LdImm, Dst: one, Imm: 1, A: ir.NoReg, B: ir.NoReg, Line: n.Pos.Line})
	tid := lo.f.NewVReg()
	lo.emit(ir.Instr{Op: ir.Ps, Dst: tid, A: one, G: uint8(isa.GRegSpawn), B: ir.NoReg, Line: n.Pos.Line})
	lo.emit(ir.Instr{Op: ir.Chkid, A: tid, B: ir.NoReg, Dst: ir.NoReg, Line: n.Pos.Line})
	savedTid := lo.tidReg
	lo.tidReg = tid

	if err := lo.stmt(n.Body); err != nil {
		return err
	}
	if !lo.cur.Terminated() {
		lo.emit(ir.Instr{Op: ir.Jmp, Target: grab, A: ir.NoReg, B: ir.NoReg, Line: n.Pos.Line})
	}
	joinB := lo.newBlock("join")
	lo.cur = joinB
	lo.emit(ir.Instr{Op: ir.Join, Imm: int32(id), A: ir.NoReg, B: ir.NoReg, Dst: ir.NoReg, Line: n.Pos.Line})

	// CFG edge for the master's control flow: after all virtual threads
	// complete, execution resumes past the join. Without this edge the
	// continuation would look unreachable (the grab loop never branches
	// to it) and liveness across the parallel section would be lost.
	for i := range preB.Instrs {
		if preB.Instrs[i].Op == ir.Spawn {
			preB.Instrs[i].Target = joinB
		}
	}

	lo.tidReg = savedTid
	lo.spawnID = 0
	cont := lo.newBlock("postjoin")
	lo.cur = cont
	return nil
}
