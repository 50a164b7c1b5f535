package codegen

import (
	"fmt"

	"xmtgo/internal/diag"
	"xmtgo/internal/ir"
)

// deadLoadNotes reports loads whose result is never used, computed on the
// freshly lowered IR with per-block liveness. Under the relaxed XMT memory
// model a dead load is worse than wasted work: programmers sometimes write
// one to "refresh" a shared location, but the optimizer is entitled to
// delete it (it has no side effects unless volatile), so it observes
// nothing. Emitted as notes under Options.Analyze; liveness must already
// be computed on f.
func deadLoadNotes(file string, f *ir.Func) []diag.Diagnostic {
	var ds []diag.Diagnostic
	seen := make(map[int]bool) // one note per source line
	var buf []ir.VReg
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			if (in.Op != ir.Load && in.Op != ir.LoadRO) || in.Volatile || in.Dst == ir.NoReg {
				continue
			}
			if !loadIsDead(b, i, in.Dst, &buf) {
				continue
			}
			if in.Line > 0 && seen[in.Line] {
				continue
			}
			seen[in.Line] = true
			ds = append(ds, diag.Diagnostic{
				Check:    "dead-load",
				Severity: diag.Note,
				Pos:      diag.Pos{File: file, Line: in.Line},
				Msg: fmt.Sprintf("in %q: loaded value is never used and the load will be eliminated; a read intended to observe another thread's write has no effect here",
					f.Name),
			})
		}
	}
	return ds
}

// loadIsDead reports whether the value defined at b.Instrs[i] is dead: no
// later instruction in the block reads it (a plain copy propagates the
// question to the copy's destination) before a redefinition, and none of
// the vregs carrying it are live out of the block.
func loadIsDead(b *ir.Block, i int, v ir.VReg, buf *[]ir.VReg) bool {
	carrying := map[ir.VReg]bool{v: true}
	for _, in := range b.Instrs[i+1:] {
		if in.Op == ir.Mov && carrying[in.A] {
			// The copy is not a real use: the value just moves into
			// another vreg (int t = x lowers to a load plus a Mov).
			carrying[in.Dst] = true
			continue
		}
		*buf = in.Uses(*buf)
		for _, u := range *buf {
			if carrying[u] {
				return false
			}
		}
		if d := in.Def(); d != ir.NoReg && carrying[d] {
			delete(carrying, d)
			if len(carrying) == 0 {
				return true
			}
		}
	}
	for u := range carrying {
		if b.LiveOut().Contains(int(u)) {
			return false
		}
	}
	return true
}
