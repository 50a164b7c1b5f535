package analysis

import (
	"fmt"

	"xmtgo/internal/analysis/dataflow"
	"xmtgo/internal/diag"
	"xmtgo/internal/xmtc"
)

// checkPsMisuse flags prefix-sum primitives used outside their hardware
// contract:
//
//   - a ps increment whose value is statically known and not 0 or 1: the
//     dedicated prefix-sum unit only combines single-bit increments
//     (paper §II-A); larger increments need psm, which the cache modules
//     serialize. The value is the one of the identifier's last definition
//     in traversal order — a deliberately shallow analysis whose one
//     false-positive shape (a constant overwritten on a branch not taken
//     at runtime) is documented in the tests;
//   - a psm whose base is a spawn-private variable: every virtual thread
//     updates its own copy, so the "synchronization" orders nothing and
//     a plain += would be cheaper.
//
// Both are one in-order pass over each function's CFG reference stream.
// ps bases that are not globals are already hard sema errors and are not
// re-reported here.
func checkPsMisuse(u *Unit) []diag.Diagnostic {
	var ds []diag.Diagnostic
	report := func(pos xmtc.Pos, format string, args ...any) {
		ds = append(ds, diag.Diagnostic{
			Check:    "ps-misuse",
			Severity: diag.Warning,
			Pos:      pos.Diag(),
			Msg:      fmt.Sprintf(format, args...),
		})
	}
	for _, g := range u.Graphs() {
		// consts holds the identifiers whose last definition stored a
		// constant. Uninitialized locals read as zero on this toolchain,
		// but count as unknown: the read is a bug of its own.
		consts := make(map[*xmtc.Symbol]int32)
		for _, blk := range g.Blocks {
			for i := range blk.Refs {
				ref := &blk.Refs[i]
				switch {
				case ref.Kind == dataflow.RefSync:
					c := ref.Call
					if c.Builtin == xmtc.BuiltinPs {
						id := c.Args[0].(*xmtc.Ident)
						if v, ok := consts[id.Sym]; ok && v != 0 && v != 1 {
							report(c.Pos, "ps increment %q is %d here: the hardware prefix-sum unit combines only 0/1 increments (paper §II-A); use psm for arbitrary values", id.Sym.Name, v)
						}
					} else if id, ok := c.Args[1].(*xmtc.Ident); ok && blk.Region != nil && blk.Region.Private[id.Sym] {
						report(c.Pos, "psm to thread-private %q: each virtual thread updates its own copy, so the prefix-sum provides no cross-thread ordering; a plain assignment is cheaper", id.Sym.Name)
					}
				case identDef(ref):
					// A compound assignment, ++/-- or the old base value a
					// prefix-sum writes into its increment has no RHS: unknown.
					if v, ok := xmtc.FoldConst(ref.RHS); ok {
						consts[ref.Sym] = v
					} else {
						delete(consts, ref.Sym)
					}
				}
			}
		}
	}
	return ds
}

// identDef reports whether ref defines a whole variable by name: a
// declaration, or a store, ++/-- or prefix-sum result into an identifier
// (not into an element or member of one).
func identDef(ref *dataflow.Ref) bool {
	if ref.Kind != dataflow.RefDef {
		return false
	}
	_, named := ref.Expr.(*xmtc.Ident)
	return ref.Decl || named
}
