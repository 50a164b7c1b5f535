package asm

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// FuzzMemMap checks ApplyMemMap, which scans each value line in place and
// converts plain decimals itself, against refApplyMemMap, the same format
// read with strings.Fields and strconv alone: both must patch the same
// bytes and fail with the same error. Run at length with
//
//	go test -fuzz FuzzMemMap ./internal/asm
func FuzzMemMap(f *testing.F) {
	for _, s := range []string{
		"arr = 017 +5 1_000 0b1 0o17 0x 0X -0x10",
		"arr = 0xE5 0XE5 -0XE 0x1F",
		"arr = 2.5 1E2 1e-3 -0.25",
		"arr = -2147483649",
		"arr = 4294967296 1",
		"arr = -2147483648 4294967295",
		"n =\t7\t\t8\r\narr[2] = 1 2\r\n",
		"n = 1 # comment\narr = 2 // comment 3\n# n = 9\n",
		"s = \"a#b\"",
		"arr =",
		"arr[15] = 1 2",
		"n = 1\u00a02\u20283",
		"arr[0x3] = 99999999999 12345678901",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		got, want := memMapProgram(t), memMapProgram(t)
		errGot := ApplyMemMap(got, "m", src)
		errWant := refApplyMemMap(want, "m", src)
		if fmt.Sprint(errGot) != fmt.Sprint(errWant) {
			t.Fatalf("%q: error %v, reference %v", src, errGot, errWant)
		}
		if !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("%q: data\n%x\nreference\n%x", src, got.Data, want.Data)
		}
	})
}

func memMapProgram(t *testing.T) *Program {
	u, err := Parse("t.s", "\t.data\nn:\t.word 0\narr:\t.space 64\ns:\t.space 8\n\t.text\nmain:\tsys 0\n")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Assemble(u)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// refApplyMemMap is ApplyMemMap's reference: every value field of
// strings.Fields goes to strconv.
func refApplyMemMap(p *Program, file, src string) error {
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
		for _, f := range strings.Fields(rhs) {
			var word int32
			if looksFloat(f) {
				fv, err := strconv.ParseFloat(f, 32)
				if err != nil {
					return errf(file, line, "bad float %q", f)
				}
				word = int32(math.Float32bits(float32(fv)))
			} else {
				v, err := strconv.ParseInt(f, 0, 64)
				if err != nil || v < math.MinInt32 || v > math.MaxUint32 {
					return errf(file, line, "bad value %q", f)
				}
				word = int32(uint32(v))
			}
			if err := p.patchWord(addr, word); err != nil {
				return errf(file, line, "%s: %v", lhs, err)
			}
			addr += 4
		}
	}
	return nil
}
