package asm

import (
	"math"
	"strconv"
	"strings"

	"xmtgo/internal/isa"
)

// Parse parses XMT assembly source into a Unit. The syntax is the classic
// MIPS-style one the XMT toolchain uses:
//
//	        .data
//	arr:    .word 1, 2, 3
//	        .space 400
//	msg:    .asciiz "done"
//	        .text
//	        .global main
//	main:   li   $t0, 5
//	        la   $a0, arr
//	loop:   lw   $t1, 0($a0)
//	        bne  $t1, $zero, loop
//	        sys  0
//
// Comments run from '#' (or "//") to end of line. Pseudo-instructions
// li/la/move/b/not/neg/bge/bgt/ble/blt/seq/sne and symbolic lw/sw are
// expanded here.
func Parse(file, src string) (*Unit, error) {
	u := &Unit{File: file, Globals: make(map[string]bool)}
	inData := false
	lines := strings.Split(src, "\n")
	for ln, raw := range lines {
		line := ln + 1
		text := stripComment(raw)
		text = strings.TrimSpace(text)
		if text == "" {
			continue
		}
		// Leading labels (possibly several, "a: b: instr").
		for {
			i := strings.IndexByte(text, ':')
			if i < 0 {
				break
			}
			head := strings.TrimSpace(text[:i])
			if !isIdent(head) {
				break
			}
			if inData {
				u.Data = append(u.Data, DataItem{Label: head, Kind: DataAlign, Size: 0, Line: line})
			} else {
				u.AppendLabel(head, line)
			}
			text = strings.TrimSpace(text[i+1:])
		}
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, ".") {
			var err error
			inData, err = u.parseDirective(text, line, inData)
			if err != nil {
				return nil, err
			}
			continue
		}
		if inData {
			return nil, errf(file, line, "instruction %q in .data section", text)
		}
		if err := u.parseInstr(text, line); err != nil {
			return nil, err
		}
	}
	return u, nil
}

// stripComment drops a '#' or '//' comment outside a string literal; a
// line with neither character comes back as it is, unscanned.
func stripComment(s string) string {
	if strings.IndexByte(s, '#') < 0 && strings.IndexByte(s, '/') < 0 {
		return s
	}
	inStr := false
	for i := 0; i < len(s); i++ {
		switch {
		case s[i] == '"' && (i == 0 || s[i-1] != '\\'):
			inStr = !inStr
		case !inStr && s[i] == '#':
			return s[:i]
		case !inStr && s[i] == '/' && i+1 < len(s) && s[i+1] == '/':
			return s[:i]
		}
	}
	return s
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == '.' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func (u *Unit) parseDirective(text string, line int, inData bool) (bool, error) {
	name, rest, _ := strings.Cut(text, " ")
	rest = strings.TrimSpace(rest)
	switch name {
	case ".data":
		return true, nil
	case ".text":
		return false, nil
	case ".global", ".globl":
		if !isIdent(rest) {
			return inData, errf(u.File, line, "%s: bad symbol %q", name, rest)
		}
		u.Globals[rest] = true
		return inData, nil
	case ".word", ".byte", ".float":
		if !inData {
			return inData, errf(u.File, line, "%s outside .data", name)
		}
		kind := DataWord
		if name == ".byte" {
			kind = DataByte
		} else if name == ".float" {
			kind = DataFloat
		}
		var vals []DataValue
		for _, f := range splitArgs(rest) {
			if kind == DataFloat {
				fv, err := strconv.ParseFloat(f, 32)
				if err != nil {
					return inData, errf(u.File, line, ".float: bad value %q", f)
				}
				vals = append(vals, DataValue{Val: int32(math.Float32bits(float32(fv)))})
				continue
			}
			if v, err := parseInt(f); err == nil {
				vals = append(vals, DataValue{Val: v})
			} else if isIdent(f) {
				vals = append(vals, DataValue{Sym: f})
			} else {
				return inData, errf(u.File, line, "%s: bad value %q", name, f)
			}
		}
		if len(vals) == 0 {
			return inData, errf(u.File, line, "%s: missing values", name)
		}
		u.Data = append(u.Data, DataItem{Kind: kind, Values: vals, Line: line})
		return inData, nil
	case ".space", ".align":
		if !inData {
			return inData, errf(u.File, line, "%s outside .data", name)
		}
		n, err := parseInt(rest)
		if err != nil || n < 0 {
			return inData, errf(u.File, line, "%s: bad size %q", name, rest)
		}
		kind := DataSpace
		if name == ".align" {
			kind = DataAlign
		}
		u.Data = append(u.Data, DataItem{Kind: kind, Size: n, Line: line})
		return inData, nil
	case ".asciiz":
		if !inData {
			return inData, errf(u.File, line, ".asciiz outside .data")
		}
		s, err := strconv.Unquote(rest)
		if err != nil {
			return inData, errf(u.File, line, ".asciiz: bad string %s", rest)
		}
		u.Data = append(u.Data, DataItem{Kind: DataAsciiz, Str: s, Line: line})
		return inData, nil
	}
	return inData, errf(u.File, line, "unknown directive %q", name)
}

func splitArgs(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func parseInt(s string) (int32, error) {
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return 0, err
	}
	if v < math.MinInt32 || v > math.MaxUint32 {
		return 0, strconv.ErrRange
	}
	return int32(uint32(v)), nil
}

// parseInstr parses one instruction (or pseudo-instruction) line.
func (u *Unit) parseInstr(text string, line int) error {
	mn, rest, _ := strings.Cut(text, " ")
	mn = strings.ToLower(strings.TrimSpace(mn))
	args := splitArgs(strings.TrimSpace(rest))
	if err := u.expandPseudo(mn, args, line); err != errNotPseudo {
		return err
	}
	op, ok := isa.ByName[mn]
	if !ok {
		return errf(u.File, line, "unknown mnemonic %q", mn)
	}
	in := isa.Instr{Op: op, Target: -1, Line: line}
	reloc := RelNone
	meta := op.Meta()
	need := func(n int) error {
		if len(args) != n {
			return errf(u.File, line, "%s: want %d operands, got %d", mn, n, len(args))
		}
		return nil
	}
	reg := func(s string) (isa.Reg, error) {
		r, err := isa.ParseReg(s)
		if err != nil {
			return 0, errf(u.File, line, "%s: %v", mn, err)
		}
		return r, nil
	}
	var err error
	switch meta.Fmt {
	case isa.FmtNone:
		if err = need(0); err != nil {
			return err
		}
	case isa.FmtRRR:
		if err = need(3); err != nil {
			return err
		}
		if in.Rd, err = reg(args[0]); err != nil {
			return err
		}
		if in.Rs, err = reg(args[1]); err != nil {
			return err
		}
		if in.Rt, err = reg(args[2]); err != nil {
			return err
		}
	case isa.FmtRRI:
		if err = need(3); err != nil {
			return err
		}
		if in.Rd, err = reg(args[0]); err != nil {
			return err
		}
		if in.Rs, err = reg(args[1]); err != nil {
			return err
		}
		if sym, kind, ok := tryHiLo(args[2]); ok {
			in.Sym, reloc = sym, kind
		} else if in.Imm, err = parseInt(args[2]); err != nil {
			return errf(u.File, line, "%s: bad immediate %q", mn, args[2])
		}
	case isa.FmtRI:
		if err = need(2); err != nil {
			return err
		}
		if in.Rd, err = reg(args[0]); err != nil {
			return err
		}
		if sym, kind, ok := tryHiLo(args[1]); ok {
			in.Sym, reloc = sym, kind
		} else if in.Imm, err = parseInt(args[1]); err != nil {
			return errf(u.File, line, "%s: bad immediate %q", mn, args[1])
		}
	case isa.FmtRR:
		if err = need(2); err != nil {
			return err
		}
		if in.Rd, err = reg(args[0]); err != nil {
			return err
		}
		if in.Rs, err = reg(args[1]); err != nil {
			return err
		}
	case isa.FmtR:
		if err = need(1); err != nil {
			return err
		}
		if in.Rd, err = reg(args[0]); err != nil {
			return err
		}
		if op == isa.OpJr || op == isa.OpJalr || op == isa.OpChkid {
			in.Rs = in.Rd
		}
	case isa.FmtMem:
		if err = need(2); err != nil {
			return err
		}
		if in.Rd, err = reg(args[0]); err != nil {
			return err
		}
		off, base, perr := parseMemOperand(args[1])
		if perr != nil {
			// Symbolic form: "lw $t0, sym" expands to la $at + access.
			if isIdent(args[1]) {
				u.AppendInstr(isa.Instr{Op: isa.OpLui, Rd: isa.RegAT, Sym: args[1], Target: -1, Line: line}, RelHi16, line)
				u.AppendInstr(isa.Instr{Op: isa.OpOri, Rd: isa.RegAT, Rs: isa.RegAT, Sym: args[1], Target: -1, Line: line}, RelLo16, line)
				in.Rs = isa.RegAT
				in.Imm = 0
				u.AppendInstr(in, RelNone, line)
				return nil
			}
			return errf(u.File, line, "%s: bad memory operand %q", mn, args[1])
		}
		in.Imm = off
		if in.Rs, err = reg(base); err != nil {
			return err
		}
	case isa.FmtBranch2:
		if err = need(3); err != nil {
			return err
		}
		if in.Rs, err = reg(args[0]); err != nil {
			return err
		}
		if in.Rt, err = reg(args[1]); err != nil {
			return err
		}
		in.Sym = args[2]
		reloc = RelBranch
	case isa.FmtBranch1:
		if err = need(2); err != nil {
			return err
		}
		if in.Rs, err = reg(args[0]); err != nil {
			return err
		}
		in.Sym = args[1]
		reloc = RelBranch
	case isa.FmtJump:
		if err = need(1); err != nil {
			return err
		}
		in.Sym = args[0]
		reloc = RelBranch
	case isa.FmtPS:
		if err = need(2); err != nil {
			return err
		}
		if in.Rd, err = reg(args[0]); err != nil {
			return err
		}
		g, gerr := parseGReg(args[1])
		if gerr != nil {
			return errf(u.File, line, "%s: %v", mn, gerr)
		}
		in.G = g
	case isa.FmtSpawn:
		if err = need(2); err != nil {
			return err
		}
		if in.Rs, err = reg(args[0]); err != nil {
			return err
		}
		if in.Rt, err = reg(args[1]); err != nil {
			return err
		}
	case isa.FmtSys:
		if err = need(1); err != nil {
			return err
		}
		if in.Imm, err = parseInt(args[0]); err != nil {
			return errf(u.File, line, "sys: bad code %q", args[0])
		}
	}
	u.AppendInstr(in, reloc, line)
	return nil
}

// tryHiLo recognizes the %hi(sym) / %lo(sym) relocation operand syntax.
func tryHiLo(s string) (sym string, kind RelocKind, ok bool) {
	switch {
	case strings.HasPrefix(s, "%hi(") && strings.HasSuffix(s, ")"):
		return s[4 : len(s)-1], RelHi16, true
	case strings.HasPrefix(s, "%lo(") && strings.HasSuffix(s, ")"):
		return s[4 : len(s)-1], RelLo16, true
	}
	return "", RelNone, false
}

func parseMemOperand(s string) (off int32, base string, err error) {
	i := strings.IndexByte(s, '(')
	if i < 0 || !strings.HasSuffix(s, ")") {
		return 0, "", errNotPseudo
	}
	offStr := strings.TrimSpace(s[:i])
	base = strings.TrimSpace(s[i+1 : len(s)-1])
	if offStr == "" {
		return 0, base, nil
	}
	off, err = parseInt(offStr)
	return off, base, err
}

func parseGReg(s string) (isa.GReg, error) {
	if len(s) < 2 || (s[0] != 'g' && s[0] != 'G') {
		return 0, errNotPseudo
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= isa.NumGRegs {
		return 0, errf("", 0, "bad global register %q", s)
	}
	return isa.GReg(n), nil
}

// errNotPseudo is a sentinel: the mnemonic was not a pseudo-instruction and
// should be handled by the regular path.
var errNotPseudo = &Error{Msg: "not a pseudo-instruction"}

// expandPseudo expands assembler pseudo-instructions into real ones.
func (u *Unit) expandPseudo(mn string, args []string, line int) error {
	reg := func(s string) (isa.Reg, error) {
		r, err := isa.ParseReg(s)
		if err != nil {
			return 0, errf(u.File, line, "%s: %v", mn, err)
		}
		return r, nil
	}
	switch mn {
	case "li":
		if len(args) != 2 {
			return errf(u.File, line, "li: want 2 operands")
		}
		rd, err := reg(args[0])
		if err != nil {
			return err
		}
		v, err := parseInt(args[1])
		if err != nil {
			return errf(u.File, line, "li: bad immediate %q", args[1])
		}
		u.emitLoadImm(rd, v, line)
		return nil
	case "la":
		if len(args) != 2 {
			return errf(u.File, line, "la: want 2 operands")
		}
		rd, err := reg(args[0])
		if err != nil {
			return err
		}
		if !isIdent(args[1]) {
			return errf(u.File, line, "la: bad symbol %q", args[1])
		}
		u.AppendInstr(isa.Instr{Op: isa.OpLui, Rd: rd, Sym: args[1], Target: -1, Line: line}, RelHi16, line)
		u.AppendInstr(isa.Instr{Op: isa.OpOri, Rd: rd, Rs: rd, Sym: args[1], Target: -1, Line: line}, RelLo16, line)
		return nil
	case "move":
		if len(args) != 2 {
			return errf(u.File, line, "move: want 2 operands")
		}
		rd, err := reg(args[0])
		if err != nil {
			return err
		}
		rs, err := reg(args[1])
		if err != nil {
			return err
		}
		u.AppendInstr(isa.Instr{Op: isa.OpAddu, Rd: rd, Rs: rs, Rt: isa.RegZero, Target: -1, Line: line}, RelNone, line)
		return nil
	case "b":
		if len(args) != 1 {
			return errf(u.File, line, "b: want 1 operand")
		}
		u.AppendInstr(isa.Instr{Op: isa.OpJ, Sym: args[0], Target: -1, Line: line}, RelBranch, line)
		return nil
	case "not":
		if len(args) != 2 {
			return errf(u.File, line, "not: want 2 operands")
		}
		rd, err := reg(args[0])
		if err != nil {
			return err
		}
		rs, err := reg(args[1])
		if err != nil {
			return err
		}
		u.AppendInstr(isa.Instr{Op: isa.OpNor, Rd: rd, Rs: rs, Rt: isa.RegZero, Target: -1, Line: line}, RelNone, line)
		return nil
	case "neg":
		if len(args) != 2 {
			return errf(u.File, line, "neg: want 2 operands")
		}
		rd, err := reg(args[0])
		if err != nil {
			return err
		}
		rs, err := reg(args[1])
		if err != nil {
			return err
		}
		u.AppendInstr(isa.Instr{Op: isa.OpSub, Rd: rd, Rs: isa.RegZero, Rt: rs, Target: -1, Line: line}, RelNone, line)
		return nil
	case "blt", "bge", "bgt", "ble":
		if len(args) != 3 {
			return errf(u.File, line, "%s: want 3 operands", mn)
		}
		rs, err := reg(args[0])
		if err != nil {
			return err
		}
		rt, err := reg(args[1])
		if err != nil {
			return err
		}
		a, b := rs, rt
		if mn == "bgt" || mn == "ble" {
			a, b = rt, rs // swap operands: bgt x,y == blt y,x
		}
		u.AppendInstr(isa.Instr{Op: isa.OpSlt, Rd: isa.RegAT, Rs: a, Rt: b, Target: -1, Line: line}, RelNone, line)
		br := isa.OpBne // blt/bgt: taken when slt produced 1
		if mn == "bge" || mn == "ble" {
			br = isa.OpBeq // taken when slt produced 0
		}
		u.AppendInstr(isa.Instr{Op: br, Rs: isa.RegAT, Rt: isa.RegZero, Sym: args[2], Target: -1, Line: line}, RelBranch, line)
		return nil
	}
	return errNotPseudo
}

// emitLoadImm emits the shortest sequence loading v into rd.
func (u *Unit) emitLoadImm(rd isa.Reg, v int32, line int) {
	if v >= -32768 && v <= 32767 {
		u.AppendInstr(isa.Instr{Op: isa.OpAddiu, Rd: rd, Rs: isa.RegZero, Imm: v, Target: -1, Line: line}, RelNone, line)
		return
	}
	hi := int32(uint32(v) >> 16)
	lo := int32(uint32(v) & 0xffff)
	u.AppendInstr(isa.Instr{Op: isa.OpLui, Rd: rd, Imm: hi, Target: -1, Line: line}, RelNone, line)
	if lo != 0 {
		u.AppendInstr(isa.Instr{Op: isa.OpOri, Rd: rd, Rs: rd, Imm: lo, Target: -1, Line: line}, RelNone, line)
	}
}
