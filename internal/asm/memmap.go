package asm

import (
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// A memory-map file provides initial values for global variables — the only
// way to feed input to an XMTC program in the OS-less XMT toolchain (paper
// §III-A). The format is line-oriented:
//
//	# comment
//	n       = 1024
//	A       = 5 0 3 0 0 9 1
//	A[100]  = 7          # word offset 100 within A
//	name    = "a string"
//	weights = 0.5 1.25 3.0
//
// Integer values are written as 32-bit words, values containing '.' or an
// exponent as IEEE-754 float32 words, and strings as NUL-terminated bytes.
// An integer is decimal or, in strconv.ParseInt's base-0 syntax, hex (0x),
// octal (0o or a leading 0) or binary (0b), prefixes in either case, with
// an optional sign and '_' separators; it must fit 32 bits, signed or
// unsigned. A hex value is an integer even when its digits hold an 'e'.

// ApplyMemMap parses src and patches the program's initial data image.
func ApplyMemMap(p *Program, file, src string) error {
	for ln, raw := range strings.Split(src, "\n") {
		line := ln + 1
		text := strings.TrimSpace(stripComment(raw))
		if text == "" {
			continue
		}
		lhs, rhs, ok := strings.Cut(text, "=")
		if !ok {
			return errf(file, line, "expected 'symbol = values'")
		}
		lhs = strings.TrimSpace(lhs)
		rhs = strings.TrimSpace(rhs)

		var wordOff int64
		if i := strings.IndexByte(lhs, '['); i >= 0 {
			if !strings.HasSuffix(lhs, "]") {
				return errf(file, line, "bad subscript in %q", lhs)
			}
			var err error
			wordOff, err = strconv.ParseInt(lhs[i+1:len(lhs)-1], 0, 32)
			if err != nil || wordOff < 0 {
				return errf(file, line, "bad subscript in %q", lhs)
			}
			lhs = strings.TrimSpace(lhs[:i])
		}
		sym, ok := p.Syms[lhs]
		if !ok || sym.Kind != SymData {
			return errf(file, line, "unknown data symbol %q", lhs)
		}
		addr := sym.Value + uint32(wordOff)*4

		if strings.HasPrefix(rhs, "\"") {
			s, err := strconv.Unquote(rhs)
			if err != nil {
				return errf(file, line, "bad string %s", rhs)
			}
			if err := p.patchBytes(addr, append([]byte(s), 0)); err != nil {
				return errf(file, line, "%s: %v", lhs, err)
			}
			continue
		}
		for i := 0; i < len(rhs); {
			var f string
			if f, i = nextField(rhs, i); f == "" {
				break
			}
			word, ok := memWord(f)
			if !ok {
				if looksFloat(f) {
					return errf(file, line, "bad float %q", f)
				}
				return errf(file, line, "bad value %q", f)
			}
			if err := p.patchWord(addr, word); err != nil {
				return errf(file, line, "%s: %v", lhs, err)
			}
			addr += 4
		}
	}
	return nil
}

// nextField returns the first field of s at or after i and the offset just
// past it, or "" at the end of s: strings.Fields scanned in place, so a
// line of thousands of values allocates nothing.
func nextField(s string, i int) (string, int) {
	start := skip(s, i, true)
	end := skip(s, start, false)
	return s[start:end], end
}

// skip returns the offset of the first rune of s at or after i that is
// white space, by unicode.IsSpace like strings.Fields, exactly when space
// is false.
func skip(s string, i int, space bool) int {
	for i < len(s) {
		c, n, sp := s[i], 1, asciiSpace[s[i]]
		if c >= utf8.RuneSelf {
			var r rune
			r, n = utf8.DecodeRuneInString(s[i:])
			sp = unicode.IsSpace(r)
		}
		if sp != space {
			break
		}
		i += n
	}
	return i
}

var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// memWord converts one memory-map value to its data word. Plain decimals
// (an optional '-', then digits with no leading zero) are converted here;
// every other form goes to strconv, as parseWord.
func memWord(f string) (int32, bool) {
	digits := strings.TrimPrefix(f, "-")
	if len(digits) > 0 && len(digits) <= 10 && digits[0] != '0' || digits == "0" {
		var v int64
		for i := 0; i < len(digits); i++ {
			c := digits[i]
			if c < '0' || c > '9' {
				return parseWord(f)
			}
			v = v*10 + int64(c-'0')
		}
		if len(digits) < len(f) {
			v = -v
		}
		return int32(uint32(v)), v >= math.MinInt32 && v <= math.MaxUint32
	}
	return parseWord(f)
}

// parseWord converts a value with strconv: a float when looksFloat says
// so, else an integer in base-0 syntax.
func parseWord(f string) (int32, bool) {
	if looksFloat(f) {
		fv, err := strconv.ParseFloat(f, 32)
		return int32(math.Float32bits(float32(fv))), err == nil
	}
	v, err := strconv.ParseInt(f, 0, 64)
	return int32(uint32(v)), err == nil && v >= math.MinInt32 && v <= math.MaxUint32
}

// looksFloat reports whether a value is written as a float: it has a '.'
// or an exponent and no hex or binary prefix (either case, after a sign).
func looksFloat(s string) bool {
	u := s
	if u != "" && (u[0] == '+' || u[0] == '-') {
		u = u[1:]
	}
	if len(u) >= 2 && u[0] == '0' && (u[1]|0x20 == 'x' || u[1]|0x20 == 'b') {
		return false
	}
	return strings.ContainsAny(s, ".eE")
}

func (p *Program) patchWord(addr uint32, v int32) error {
	if addr < DataBase || addr+4 > DataBase+uint32(len(p.Data)) {
		return errf("", 0, "address 0x%x outside the data segment", addr)
	}
	off := addr - DataBase
	p.Data[off] = byte(v)
	p.Data[off+1] = byte(v >> 8)
	p.Data[off+2] = byte(v >> 16)
	p.Data[off+3] = byte(v >> 24)
	return nil
}

func (p *Program) patchBytes(addr uint32, b []byte) error {
	if addr < DataBase || addr+uint32(len(b)) > DataBase+uint32(len(p.Data)) {
		return errf("", 0, "address 0x%x outside the data segment", addr)
	}
	copy(p.Data[addr-DataBase:], b)
	return nil
}
