package codegen

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"xmtgo/internal/analysis"
	"xmtgo/internal/asm"
	"xmtgo/internal/asm/postpass"
	"xmtgo/internal/diag"
	"xmtgo/internal/ir"
	"xmtgo/internal/isa"
	"xmtgo/internal/xmtc"
	"xmtgo/internal/xmtc/prepass"
)

// Options configure a compilation.
type Options struct {
	// OptLevel 0 disables the core-pass optimizer.
	OptLevel int
	// NoNBStore disables the non-blocking-store optimization (ablation).
	NoNBStore bool
	// NoPrefetch disables compiler prefetch insertion (ablation).
	NoPrefetch bool
	// PrefetchSlots caps prefetches per virtual thread (default 4).
	PrefetchSlots int
	// ClusterFactor > 1 enables virtual-thread clustering by that factor.
	ClusterFactor int
	// DisableOutline keeps spawns inline (compiler experiments).
	DisableOutline bool
	// ScrambleLayout mimics GCC's basic-block placement of Fig. 9: one
	// spawn-region block is moved after the region so the post-pass must
	// relocate it back.
	ScrambleLayout bool
	// SkipPostpass emits without verification (used by tests that drive
	// the post-pass separately).
	SkipPostpass bool
	// DumpIR collects the optimized IR of every function.
	DumpIR bool
	// DumpPrepass renders Result.PrepassSource.
	DumpPrepass bool
	// Analyze runs the static analyzer (package analysis) over the
	// checked AST before the pre-pass rewrites it, and collects IR- and
	// assembly-level findings; everything lands in Result.Diagnostics.
	Analyze bool
}

// DefaultOptions is the standard -O1 pipeline.
func DefaultOptions() Options {
	return Options{OptLevel: 1, PrefetchSlots: 4}
}

// CheckOptLevel is the compiling CLIs' rule for -O: Compile reads any level
// above 1 as 1, so a level other than 0 or 1 must be refused rather than
// compiled silently as something else.
func CheckOptLevel(level int) error {
	if level != 0 && level != 1 {
		return errors.New("-O must be 0 or 1")
	}
	return nil
}

// Stats reports what the XMT-specific passes did.
type Stats struct {
	Functions       int
	OutlinedSpawns  int
	NonBlocking     int
	Prefetches      int
	RelocatedBlocks int
}

// Result is a successful compilation.
type Result struct {
	Unit *asm.Unit
	// Warnings are the front-end's structured diagnostics (e.g. the
	// nested-spawn serialization warning).
	Warnings []diag.Diagnostic
	// Diagnostics are analyzer findings: the static analysis passes
	// (with Options.Analyze), IR-level observations, and the post-pass
	// relocation notes and memory-model warnings.
	Diagnostics []diag.Diagnostic
	Stats       Stats
	IRDumps     map[string]string
	// PrepassSource is the outlined XMTC rendered back to source-like
	// form (the -dump-prepass view of Fig. 8c), with Options.DumpPrepass.
	PrepassSource string
}

// Compile runs the full three-pass XMTC pipeline (pre-pass, core pass,
// post-pass) and returns the resulting assembly unit, ready for
// asm.Assemble (optionally after asm.ApplyMemMap).
func Compile(file, src string, opts Options) (*Result, error) {
	if opts.PrefetchSlots == 0 {
		opts.PrefetchSlots = 4
	}
	f, err := xmtc.Parse(file, src)
	if err != nil {
		return nil, err
	}
	info, err := xmtc.Check(f)
	if err != nil {
		return nil, err
	}
	// The analyzer must see the AST before the pre-pass outlines spawn
	// bodies into synthetic functions, or positions and scopes would no
	// longer match the source.
	var analysisDiags []diag.Diagnostic
	if opts.Analyze {
		analysisDiags = analysis.Run(&analysis.Unit{
			Filename: file,
			File:     f,
			Info:     info,
			Lines:    strings.Split(src, "\n"),
		}, nil)
	}
	if err := prepass.Run(f, prepass.Options{
		ClusterFactor:  opts.ClusterFactor,
		DisableOutline: opts.DisableOutline,
	}); err != nil {
		return nil, err
	}

	res := &Result{
		Unit:        &asm.Unit{File: file, Globals: map[string]bool{"main": true}},
		Warnings:    info.Warnings,
		Diagnostics: analysisDiags,
		IRDumps:     make(map[string]string),
	}
	if opts.DumpPrepass {
		res.PrepassSource = xmtc.Render(f)
	}
	u := res.Unit

	// Data segment: globals (ps bases live in global registers instead),
	// then string literals.
	for _, g := range info.Globals {
		if g.Sym.PsBase {
			continue
		}
		if err := emitGlobalData(u, g); err != nil {
			return nil, err
		}
	}
	for _, s := range f.Strings {
		u.Data = append(u.Data, asm.DataItem{Label: s.Label, Kind: asm.DataAsciiz, Str: s.Val})
	}

	// Startup code: initialize ps-base global registers, call main, halt.
	u.AppendLabel("_start", 0)
	for _, sym := range info.PsBases {
		init := int32(0)
		if vd, ok := sym.Def.(*xmtc.VarDecl); ok && vd.Init != nil {
			if v, ok := xmtc.FoldConst(vd.Init); ok {
				init = v
			}
		}
		if init >= -32768 && init <= 32767 {
			u.AppendInstr(isa.Instr{Op: isa.OpAddiu, Rd: isa.RegT0, Rs: isa.RegZero, Imm: init, Target: -1}, asm.RelNone, 0)
		} else {
			u.AppendInstr(isa.Instr{Op: isa.OpLui, Rd: isa.RegT0, Imm: int32(uint32(init) >> 16), Target: -1}, asm.RelNone, 0)
			u.AppendInstr(isa.Instr{Op: isa.OpOri, Rd: isa.RegT0, Rs: isa.RegT0, Imm: int32(uint32(init) & 0xffff), Target: -1}, asm.RelNone, 0)
		}
		u.AppendInstr(isa.Instr{Op: isa.OpGrw, Rd: isa.RegT0, G: isa.GReg(sym.GReg), Target: -1}, asm.RelNone, 0)
	}
	u.AppendInstr(isa.Instr{Op: isa.OpJal, Sym: "main", Target: -1}, asm.RelBranch, 0)
	u.AppendInstr(isa.Instr{Op: isa.OpSys, Imm: isa.SysHalt, Target: -1}, asm.RelNone, 0)

	// Functions (including outlined spawn functions appended by the
	// pre-pass; re-collect them from the rewritten file).
	needMalloc := false
	var funcs []*xmtc.FuncDecl
	for _, d := range f.Decls {
		if fd, ok := d.(*xmtc.FuncDecl); ok && fd.Body != nil {
			funcs = append(funcs, fd)
			if fd.IsOutlinedSpawn {
				res.Stats.OutlinedSpawns++
			}
		}
	}
	cg := &Compiler{opts: opts}
	for _, fd := range funcs {
		irf, err := cg.lowerFunc(fd)
		if err != nil {
			return nil, err
		}
		if opts.Analyze {
			// Dead loads must be spotted before Optimize silently deletes
			// them; liveness on the raw lowered IR is cheap.
			irf.Liveness()
			res.Diagnostics = append(res.Diagnostics, deadLoadNotes(file, irf)...)
		}
		irf.Optimize(opts.OptLevel)
		irf.Liveness()
		if !opts.NoNBStore {
			res.Stats.NonBlocking += nonBlockingStores(irf)
		}
		if !opts.NoPrefetch {
			res.Stats.Prefetches += insertPrefetches(irf, opts.PrefetchSlots)
		}
		if opts.DumpIR {
			res.IRDumps[fd.Name] = irf.Dump()
		}
		alloc, err := allocate(irf)
		if err != nil {
			return nil, err
		}
		if err := emitFunc(u, irf, alloc); err != nil {
			return nil, err
		}
		res.Stats.Functions++
		// malloc is referenced through the runtime.
		for _, b := range irf.Blocks {
			for i := range b.Instrs {
				if b.Instrs[i].Op == ir.Call && b.Instrs[i].CallName == "malloc" {
					needMalloc = true
				}
			}
		}
	}

	if needMalloc {
		if err := appendRuntime(u); err != nil {
			return nil, err
		}
	}

	if opts.ScrambleLayout {
		scrambleUnit(u)
	}

	if !opts.SkipPostpass {
		pres, err := postpass.Run(u)
		if err != nil {
			return nil, err
		}
		res.Stats.RelocatedBlocks = pres.RelocatedBlocks
		res.Diagnostics = append(res.Diagnostics, pres.Diagnostics...)
	}
	diag.Sort(res.Diagnostics)
	return res, nil
}

// Compiler carries per-compilation state shared across functions.
type Compiler struct {
	opts Options
}

// emitGlobalData lays out one global variable.
func emitGlobalData(u *asm.Unit, g *xmtc.VarDecl) error {
	t := g.Type
	constOf := func(e xmtc.Expr) (int32, error) {
		if fl, ok := e.(*xmtc.FloatLit); ok {
			return int32(math.Float32bits(float32(fl.Val))), nil
		}
		if v, ok := xmtc.FoldConst(e); ok {
			return v, nil
		}
		return 0, fmt.Errorf("%s: initializer for %q is not constant", g.Pos, g.Name)
	}
	switch {
	case t.Kind == xmtc.KArray && t.Elem.Kind == xmtc.KChar:
		u.Data = append(u.Data, asm.DataItem{Label: g.Name, Kind: asm.DataAlign, Size: 2})
		var vals []asm.DataValue
		for _, e := range g.InitList {
			v, err := constOf(e)
			if err != nil {
				return err
			}
			vals = append(vals, asm.DataValue{Val: v})
		}
		if len(vals) > 0 {
			u.Data = append(u.Data, asm.DataItem{Kind: asm.DataByte, Values: vals})
		}
		if rem := t.ArrayLen - int32(len(vals)); rem > 0 {
			u.Data = append(u.Data, asm.DataItem{Kind: asm.DataSpace, Size: rem})
		}
	case t.Kind == xmtc.KArray:
		u.Data = append(u.Data, asm.DataItem{Label: g.Name, Kind: asm.DataAlign, Size: 2})
		var vals []asm.DataValue
		for _, e := range g.InitList {
			v, err := constOf(e)
			if err != nil {
				return err
			}
			vals = append(vals, asm.DataValue{Val: v})
		}
		if len(vals) > 0 {
			u.Data = append(u.Data, asm.DataItem{Kind: asm.DataWord, Values: vals})
		}
		if rem := t.Size() - int32(len(vals))*t.Elem.Size(); rem > 0 {
			u.Data = append(u.Data, asm.DataItem{Kind: asm.DataSpace, Size: rem})
		}
	case t.Kind == xmtc.KStruct:
		u.Data = append(u.Data, asm.DataItem{Label: g.Name, Kind: asm.DataAlign, Size: 2})
		u.Data = append(u.Data, asm.DataItem{Kind: asm.DataSpace, Size: t.Size()})
	case t.Kind == xmtc.KChar:
		u.Data = append(u.Data, asm.DataItem{Label: g.Name, Kind: asm.DataAlign, Size: 0})
		v := int32(0)
		if g.Init != nil {
			var err error
			if v, err = constOf(g.Init); err != nil {
				return err
			}
		}
		u.Data = append(u.Data, asm.DataItem{Kind: asm.DataByte, Values: []asm.DataValue{{Val: v}}})
	default:
		u.Data = append(u.Data, asm.DataItem{Label: g.Name, Kind: asm.DataAlign, Size: 2})
		v := int32(0)
		if g.Init != nil {
			var err error
			if v, err = constOf(g.Init); err != nil {
				return err
			}
		}
		u.Data = append(u.Data, asm.DataItem{Kind: asm.DataWord, Values: []asm.DataValue{{Val: v}}})
	}
	return nil
}

// runtimeAsm is the serial-mode runtime library: a bump allocator whose
// heap begins after all linked data (dynamic memory allocation is a
// serial-code library call in the current XMT release, paper §IV-D).
const runtimeAsm = `
        .data
        .align 3
__heap_ptr: .word 0
        .text
malloc:
        lw    $t0, __heap_ptr
        bne   $t0, $zero, __m_have
        la    $t0, __heap_base
__m_have:
        addiu $t1, $t0, 7
        srl   $t1, $t1, 3
        sll   $v0, $t1, 3
        addu  $t2, $v0, $a0
        la    $t3, __heap_ptr
        sw    $t2, 0($t3)
        jr    $ra
        .data
        .align 3
__heap_base:
        .word 0
`

func appendRuntime(u *asm.Unit) error {
	ru, err := asm.Parse("runtime.s", runtimeAsm)
	if err != nil {
		return fmt.Errorf("internal: runtime assembly: %v", err)
	}
	u.Text = append(u.Text, ru.Text...)
	u.Data = append(u.Data, ru.Data...)
	return nil
}

// scrambleUnit reproduces the GCC layout issue of Fig. 9: it moves one
// spawn-region basic block (a jump-target block ending in an unconditional
// jump) to the end of the unit, after the region. The post-pass must then
// detect and relocate it back.
func scrambleUnit(u *asm.Unit) bool {
	// Find a region (spawn .. join) and a candidate block inside it.
	type pos struct{ spawn, join int }
	var regions []pos
	open := -1
	for i, it := range u.Text {
		if it.Kind != asm.ItemInstr {
			continue
		}
		switch it.Instr.Op {
		case isa.OpSpawn:
			open = i
		case isa.OpJoin:
			if open >= 0 {
				regions = append(regions, pos{open, i})
				open = -1
			}
		}
	}
	for _, r := range regions {
		// Candidate: label L where the previous instruction is an
		// unconditional j, and the chunk from L extends to the next
		// unconditional j before the join.
		for i := r.spawn + 1; i < r.join; i++ {
			if u.Text[i].Kind != asm.ItemLabel {
				continue
			}
			prev := -1
			for k := i - 1; k > r.spawn; k-- {
				if u.Text[k].Kind == asm.ItemInstr {
					prev = k
					break
				}
			}
			if prev < 0 || u.Text[prev].Instr.Op != isa.OpJ {
				continue
			}
			end := -1
			for k := i; k < r.join; k++ {
				if u.Text[k].Kind == asm.ItemInstr && u.Text[k].Instr.Op == isa.OpJ {
					end = k
					break
				}
			}
			if end < 0 {
				continue
			}
			chunk := append([]asm.TextItem(nil), u.Text[i:end+1]...)
			rest := append(append([]asm.TextItem(nil), u.Text[:i]...), u.Text[end+1:]...)
			u.Text = append(rest, chunk...)
			return true
		}
	}
	return false
}
