package analysis

import (
	"fmt"

	"xmtgo/internal/analysis/dataflow"
	"xmtgo/internal/diag"
	"xmtgo/internal/xmtc"
)

// checkSpawnDataflow flags dataflow and control flow that illegally
// crosses a spawn boundary — the bug class the outlining pre-pass exists
// to contain (paper Fig. 8):
//
//   - return, and break/continue whose target loop or switch lies outside
//     the spawn, would transfer control out of parallel code, which has
//     no meaning on the TCUs (errors; these double the sema rules so
//     xmtlint reports them even on sources sema rejects). The CFG builder
//     records these as region escapes, so the check is a readout;
//   - a serial-scope local written inside the spawn is captured by
//     reference by the outlining pass and therefore shared — unsynchronized
//     — by every virtual thread; the classic broken pattern is a serial
//     accumulator updated with += instead of ps/psm (warning; needs
//     resolved symbols, so it is skipped when sema failed). A spawn whose
//     constant bounds prove a single virtual thread (spawn(k, k)) has no
//     second writer and is not warned about — though a serial-scope ps/psm
//     increment stays an error, because the register contract is broken
//     regardless of thread count.
func checkSpawnDataflow(u *Unit) []diag.Diagnostic {
	var ds []diag.Diagnostic
	for _, g := range u.Graphs() {
		for _, reg := range g.Regions {
			for _, esc := range reg.Escapes {
				ds = append(ds, escapeDiag(esc))
			}
			ds = append(ds, captureDiags(reg)...)
		}
	}
	return ds
}

func escapeDiag(esc dataflow.Escape) diag.Diagnostic {
	var msg string
	switch esc.Kind {
	case dataflow.EscReturn:
		msg = "return crosses the spawn boundary: a virtual thread cannot leave parallel code (the outlined spawn function has no caller frame to return to, paper Fig. 8)"
	case dataflow.EscBreak:
		msg = "break crosses the spawn boundary: the enclosing loop or switch is outside the parallel region"
	default:
		msg = "continue crosses the spawn boundary: the enclosing loop is outside the parallel region"
	}
	return diag.Diagnostic{
		Check:    "spawn-dataflow",
		Severity: diag.Error,
		Pos:      esc.Pos.Diag(),
		Msg:      msg,
	}
}

// captureDiags flags serial-scope locals mutated inside the spawn body.
// After outlining they are captured by reference, so every virtual thread
// writes the same storage with no ordering — almost always a racy
// accumulator that should be a ps/psm instead. Requires resolved symbols;
// silently does nothing before sema (Sym is nil).
func captureDiags(reg *dataflow.Region) []diag.Diagnostic {
	single := reg.SingleThread()
	reported := make(map[*xmtc.Symbol]bool)
	var ds []diag.Diagnostic
	serialLocal := func(sym *xmtc.Symbol) bool {
		if sym == nil || reg.Private[sym] || reported[sym] {
			return false
		}
		return sym.Kind == xmtc.SymLocal || sym.Kind == xmtc.SymParam
	}
	flag := func(sym *xmtc.Symbol, pos xmtc.Pos, how string) {
		reported[sym] = true
		if single {
			return // one virtual thread: the shared capture cannot race
		}
		ds = append(ds, diag.Diagnostic{
			Check:    "spawn-dataflow",
			Severity: diag.Warning,
			Pos:      pos.Diag(),
			Msg: fmt.Sprintf("serial-scope local %q is %s inside the spawn: outlining captures it by reference, so every virtual thread shares one unsynchronized copy (paper Fig. 8); declare it inside the spawn or combine per-thread results with ps/psm",
				sym.Name, how),
		})
	}
	xmtc.EachExpr(reg.Spawn.Body, func(e xmtc.Expr) {
		switch n := e.(type) {
		case *xmtc.Assign:
			if id, ok := n.LHS.(*xmtc.Ident); ok && serialLocal(id.Sym) {
				flag(id.Sym, n.Pos, "assigned")
			}
		case *xmtc.IncDec:
			if id, ok := n.X.(*xmtc.Ident); ok && serialLocal(id.Sym) {
				flag(id.Sym, n.Pos, "modified")
			}
		case *xmtc.Call:
			// ps/psm store the old base value into their increment,
			// so a serial-scope increment is also a by-reference
			// capture — and one the pre-pass will reject outright.
			if n.IsPrefixSum() && len(n.Args) > 0 {
				if id, ok := n.Args[0].(*xmtc.Ident); ok && serialLocal(id.Sym) {
					reported[id.Sym] = true
					ds = append(ds, diag.Diagnostic{
						Check:    "spawn-dataflow",
						Severity: diag.Error,
						Pos:      n.Pos.Diag(),
						Msg: fmt.Sprintf("%s increment %q must be declared inside the spawn block: a by-reference capture would break the primitive's register contract",
							n.Name, id.Sym.Name),
					})
				}
			}
		}
	})
	return ds
}
