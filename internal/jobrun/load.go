package jobrun

import (
	"errors"
	"fmt"

	"xmtgo/internal/asm"
	"xmtgo/internal/asm/postpass"
	"xmtgo/internal/codegen"
	"xmtgo/internal/diag"
)

// ErrKind reports a program kind Load does not know.
var ErrKind = errors.New("unknown program kind")

// Load builds a job's program from source. Kind "asm" (or "") is
// handwritten assembly: parsed, verified by the post-pass — so unbalanced
// spawn/join or an instruction illegal in parallel code is rejected here,
// with its file:line, not at run time — and assembled. Kind "xmtc" (or "c")
// is compiled at -O1, which runs the post-pass itself, and assembled; the
// compiler's warnings are returned for the caller to show. file names the
// source in diagnostics.
func Load(kind, file, src string) (*asm.Program, []diag.Diagnostic, error) {
	var unit *asm.Unit
	var warnings []diag.Diagnostic
	switch kind {
	case "", "asm":
		u, err := asm.Parse(file, src)
		if err != nil {
			return nil, nil, err
		}
		if _, err := postpass.Run(u); err != nil {
			return nil, nil, err
		}
		unit = u
	case "xmtc", "c":
		res, err := codegen.Compile(file, src, codegen.DefaultOptions())
		if err != nil {
			return nil, nil, err
		}
		unit, warnings = res.Unit, res.Warnings
	default:
		return nil, nil, fmt.Errorf("%w %q (want asm or xmtc)", ErrKind, kind)
	}
	prog, err := asm.Assemble(unit)
	return prog, warnings, err
}
