package asm

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"xmtgo/internal/isa"
)

func parse(t *testing.T, src string) *Unit {
	t.Helper()
	u, err := Parse("t.s", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return u
}

func assemble(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Assemble(parse(t, src))
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

func TestBasicProgram(t *testing.T) {
	p := assemble(t, `
        .data
v:      .word 42, -1, 0x10
s:      .asciiz "hi"
        .text
main:   lw  $t0, v
        sys 0
`)
	if p.Entry < 0 {
		t.Fatal("no entry")
	}
	addr, ok := p.SymAddr("v")
	if !ok || addr != DataBase {
		t.Fatalf("v at 0x%x", addr)
	}
	// Word values in the image.
	get := func(off uint32) int32 {
		return int32(uint32(p.Data[off]) | uint32(p.Data[off+1])<<8 |
			uint32(p.Data[off+2])<<16 | uint32(p.Data[off+3])<<24)
	}
	if get(0) != 42 || get(4) != -1 || get(8) != 0x10 {
		t.Fatalf("words = %d %d %d", get(0), get(4), get(8))
	}
	sAddr, _ := p.SymAddr("s")
	if string(p.Data[sAddr-DataBase:sAddr-DataBase+2]) != "hi" {
		t.Fatal("string not in image")
	}
}

func TestPseudoExpansion(t *testing.T) {
	p := assemble(t, `
        .text
main:   li   $t0, 70000
        li   $t1, 5
        move $t2, $t0
        not  $t3, $t0
        neg  $t4, $t0
        blt  $t0, $t1, main
        bge  $t0, $t1, main
        bgt  $t0, $t1, main
        ble  $t0, $t1, main
        b    main
        sys  0
`)
	// li 70000 expands to lui+ori; li 5 to addiu.
	if p.Text[0].Op != isa.OpLui || p.Text[1].Op != isa.OpOri {
		t.Fatalf("large li expansion: %v %v", p.Text[0].Op, p.Text[1].Op)
	}
	if p.Text[2].Op != isa.OpAddiu {
		t.Fatalf("small li: %v", p.Text[2].Op)
	}
}

func TestBranchResolution(t *testing.T) {
	p := assemble(t, `
        .text
main:   j end
mid:    nop
end:    beq $t0, $t1, mid
        sys 0
`)
	if p.Text[0].Target != 2 {
		t.Fatalf("j target = %d", p.Text[0].Target)
	}
	if p.Text[2].Target != 1 {
		t.Fatalf("beq target = %d", p.Text[2].Target)
	}
}

func TestSpawnRegions(t *testing.T) {
	p := assemble(t, `
        .text
main:   spawn $t0, $t1
        nop
        join
        spawn $t2, $t3
        join
        sys 0
`)
	if len(p.Spawns) != 2 {
		t.Fatalf("regions = %d", len(p.Spawns))
	}
	if p.Spawns[0].Spawn != 0 || p.Spawns[0].Join != 2 {
		t.Fatalf("region 0 = %+v", p.Spawns[0])
	}
	if r := p.RegionOf(1); r == nil || r.Spawn != 0 {
		t.Fatal("RegionOf(1) wrong")
	}
	if p.RegionOf(5) != nil {
		t.Fatal("RegionOf(5) should be nil")
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := map[string]string{
		"undefined label":  "\t.text\nmain: j nowhere\n",
		"nested spawn":     "\t.text\nmain: spawn $t0,$t1\n spawn $t2,$t3\n join\n join\n sys 0\n",
		"join no spawn":    "\t.text\nmain: join\n sys 0\n",
		"unjoined spawn":   "\t.text\nmain: spawn $t0,$t1\n sys 0\n",
		"no entry":         "\t.text\nfoo: sys 0\n",
		"duplicate label":  "\t.text\nmain: nop\nmain: sys 0\n",
		"duplicate symbol": "\t.data\nv: .word 1\nv: .word 2\n\t.text\nmain: sys 0\n",
		"unaligned word":   "\t.data\nc: .byte 1\nw: .word 2\n\t.text\nmain: sys 0\n",
		"bad register":     "\t.text\nmain: add $t0, $zz, $t1\n",
		"bad mnemonic":     "\t.text\nmain: frobnicate $t0\n",
		"bad operands":     "\t.text\nmain: add $t0, $t1\n",
		"word outside":     "\t.text\n.word 5\nmain: sys 0\n",
	}
	for name, src := range cases {
		u, err := Parse("t.s", src)
		if err == nil {
			_, err = Assemble(u)
		}
		if err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
}

func TestMemMap(t *testing.T) {
	p := assemble(t, `
        .data
n:      .word 0
arr:    .space 40
f:      .float 0.0
str:    .space 16
        .text
main:   sys 0
`)
	err := ApplyMemMap(p, "m", `
# comment
n = 7
arr = 1 2 3
arr[5] = 99
f = 2.5
str = "hey"
`)
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string, woff uint32) int32 {
		a, _ := p.SymAddr(name)
		off := a - DataBase + 4*woff
		return int32(uint32(p.Data[off]) | uint32(p.Data[off+1])<<8 |
			uint32(p.Data[off+2])<<16 | uint32(p.Data[off+3])<<24)
	}
	if get("n", 0) != 7 || get("arr", 0) != 1 || get("arr", 2) != 3 || get("arr", 5) != 99 {
		t.Fatal("int patches wrong")
	}
	if math.Float32frombits(uint32(get("f", 0))) != 2.5 {
		t.Fatal("float patch wrong")
	}
	sa, _ := p.SymAddr("str")
	if string(p.Data[sa-DataBase:sa-DataBase+3]) != "hey" {
		t.Fatal("string patch wrong")
	}

	for _, c := range []struct {
		values string
		want   []int32
	}{
		{"0xE5 0XE5 0X1F -0XE -0x10", []int32{0xE5, 0xE5, 0x1F, -0xE, -0x10}},
		{"017 +5 1_000 0b1 0B11 0o17 -0", []int32{017, 5, 1000, 1, 3, 017, 0}},
		{"4294967295 -2147483648 2147483647", []int32{-1, math.MinInt32, math.MaxInt32}},
		{"2.5 1E2 -1e-3", []int32{
			int32(math.Float32bits(2.5)), int32(math.Float32bits(100)), int32(math.Float32bits(-0.001))}},
	} {
		if err := ApplyMemMap(p, "m", "arr = "+c.values); err != nil {
			t.Errorf("arr = %s: %v", c.values, err)
			continue
		}
		for i, w := range c.want {
			if got := get("arr", uint32(i)); got != w {
				t.Errorf("arr = %s: word %d is %#x, want %#x", c.values, i, got, w)
			}
		}
	}

	for name, m := range map[string]string{
		"unknown symbol": "zzz = 1",
		"bad syntax":     "n 7",
		"bad value":      "n = abc",
		"out of range":   "f[4000] = 1",
		"bad subscript":  "arr[x] = 1",
		"above uint32":   "n = 4294967296",
		"below int32":    "n = -2147483649",
		"bare prefix":    "n = 0X",
		"hex float":      "n = 0x1.8p1",
		"bad exponent":   "n = 1e",
	} {
		if err := ApplyMemMap(p, "m", m); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestPrintParseRoundTrip: Print followed by Parse reproduces the same
// instruction stream (property-style over a handwritten corpus).
func TestPrintParseRoundTrip(t *testing.T) {
	src := `
        .data
a:      .word 1, 2, x
        .byte 1, 2
        .space 9
        .align 2
f:      .float 1.5, -0.25
x:      .asciiz "end\n"
        .text
        .global main
main:   addiu $t0, $zero, 4
        lui   $t1, %hi(a)
        ori   $t1, $t1, %lo(a)
        lw    $t2, 0($t1)
        sw.nb $t2, 4($t1)
        psm   $t2, 8($t1)
        ps    $t3, g5
        grr   $t4, g0
        grw   $t4, g1
        bcast $t4
        fence
        pref  $zero, 0($t1)
        lwro  $t5, 0($t1)
        mul   $t6, $t5, $t4
        add.s $t7, $t6, $t5
        cvt.s.w $t8, $t7
        spawn $t0, $t2
L:      chkid $t3
        beq   $t3, $zero, L
        j     L
        join
        jal   main
        jr    $ra
        sys   0
`
	u1 := parse(t, src)
	text := Print(u1)
	u2, err := Parse("round.s", text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	i1, i2 := u1.Instrs(), u2.Instrs()
	if len(i1) != len(i2) {
		t.Fatalf("instr count %d vs %d\n%s", len(i1), len(i2), text)
	}
	for i := range i1 {
		a, b := i1[i], i2[i]
		a.Line, b.Line = 0, 0
		if a != b {
			t.Fatalf("instr %d: %v vs %v", i, a, b)
		}
	}
	p1, err := Assemble(u1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Assemble(u2)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Data) != len(p2.Data) || string(p1.Data) != string(p2.Data) {
		t.Fatal("data images differ after round trip")
	}
}

// Property: any int32 survives a .word round trip through the image.
func TestWordImageProperty(t *testing.T) {
	f := func(v int32) bool {
		u := &Unit{File: "q.s", Globals: map[string]bool{}}
		u.Data = append(u.Data, DataItem{Label: "v", Kind: DataWord, Values: []DataValue{{Val: v}}})
		u.AppendLabel("main", 1)
		u.AppendInstr(isa.Instr{Op: isa.OpSys, Imm: 0, Target: -1}, RelNone, 2)
		p, err := Assemble(u)
		if err != nil {
			return false
		}
		got := int32(uint32(p.Data[0]) | uint32(p.Data[1])<<8 | uint32(p.Data[2])<<16 | uint32(p.Data[3])<<24)
		return got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: emitLoadImm (li expansion) materializes any int32 exactly:
// lui/ori or addiu evaluated by hand must reproduce the constant.
func TestLoadImmProperty(t *testing.T) {
	f := func(v int32) bool {
		u := &Unit{File: "q.s", Globals: map[string]bool{}}
		u.emitLoadImm(isa.RegT0, v, 1)
		var acc int32
		for _, it := range u.Text {
			in := it.Instr
			switch in.Op {
			case isa.OpAddiu:
				acc = in.Imm
			case isa.OpLui:
				acc = in.Imm << 16
			case isa.OpOri:
				acc |= in.Imm & 0xffff
			default:
				return false
			}
		}
		return acc == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCommentsAndLabelsOnOneLine(t *testing.T) {
	p := assemble(t, strings.Join([]string{
		"\t.text",
		"main: start: nop # trailing comment",
		"\tsys 0 // also a comment",
	}, "\n"))
	if len(p.Text) != 2 {
		t.Fatalf("got %d instrs", len(p.Text))
	}
	if p.Syms["start"].Value != 0 {
		t.Fatal("stacked labels broken")
	}
}
