package xmtc

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"xmtgo/internal/diag"
)

func mustParse(t *testing.T, src string) *File {
	t.Helper()
	f, err := Parse("t.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f
}

func check(t *testing.T, src string) (*File, *Info, error) {
	t.Helper()
	f, err := Parse("t.c", src)
	if err != nil {
		return nil, nil, err
	}
	info, err := Check(f)
	return f, info, err
}

func TestLexer(t *testing.T) {
	toks, err := LexAll("t.c", `int x = 0x1f + 2.5f - 'a'; // comment
/* block
comment */ $ "str\n" <<= >>= && ||`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []Tok
	for _, tk := range toks {
		kinds = append(kinds, tk.Kind)
	}
	want := []Tok{KwInt, IDENT, ASSIGN, INTLIT, ADD, FLOATLIT, SUB, INTLIT, SEMI,
		DOLLAR, STRINGLIT, SHLA, SHRA, ANDAND, OROR, EOF}
	if len(kinds) != len(want) {
		t.Fatalf("got %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("token %d = %v, want %v", i, kinds[i], want[i])
		}
	}
	if toks[3].Int != 0x1f || toks[5].Flt != 2.5 || toks[7].Int != 'a' {
		t.Fatal("literal values wrong")
	}
	if toks[10].Text != "str\n" {
		t.Fatalf("string = %q", toks[10].Text)
	}
}

// TestLexerOperators lexes every operator spelling of tokNames alone, then
// runs of operators that share a prefix, which must lex longest match first.
func TestLexerOperators(t *testing.T) {
	lexKinds := func(src string) []Tok {
		toks, err := LexAll("t.c", src)
		if err != nil {
			t.Fatalf("LexAll(%q): %v", src, err)
		}
		var kinds []Tok
		for _, tk := range toks[:len(toks)-1] {
			kinds = append(kinds, tk.Kind)
		}
		return kinds
	}
	for tok := LPAREN; tok <= ARROW; tok++ {
		if got := lexKinds(tokNames[tok]); !slices.Equal(got, []Tok{tok}) {
			t.Errorf("%q lexes to %v, want [%v]", tokNames[tok], got, tok)
		}
	}
	for _, c := range []struct {
		src  string
		want []Tok
	}{
		{"<<<=", []Tok{SHL, LE}},
		{"<<==", []Tok{SHLA, ASSIGN}},
		{">>>=", []Tok{SHR, GE}},
		{">>>>=", []Tok{SHR, SHRA}},
		{"+++", []Tok{INC, ADD}},
		{"+++=", []Tok{INC, ADDA}},
		{"--->", []Tok{DEC, ARROW}},
		{"->>", []Tok{ARROW, GT}},
		{"&&&", []Tok{ANDAND, AND}},
		{"|||=", []Tok{OROR, ORA}},
		{"===", []Tok{EQ, ASSIGN}},
		{"!==", []Tok{NE, ASSIGN}},
		{"<=>", []Tok{LE, GT}},
		{"a<<=b", []Tok{IDENT, SHLA, IDENT}},
		{"x-->y", []Tok{IDENT, DEC, GT, IDENT}},
		{"*p/=q%=r^=s&=t", []Tok{MUL, IDENT, DIVA, IDENT, REMA, IDENT, XORA, IDENT, ANDA, IDENT}},
		{"s.f->g", []Tok{IDENT, DOT, IDENT, ARROW, IDENT}},
	} {
		if got := lexKinds(c.src); !slices.Equal(got, c.want) {
			t.Errorf("%q lexes to %v, want %v", c.src, got, c.want)
		}
	}
}

// TestLexAllAllocs bounds the lexer's allocations on operator-dense input:
// growing the token slice is all it may allocate, so eight times the tokens
// may cost only a few more allocations, never a few per token.
func TestLexAllAllocs(t *testing.T) {
	unit := "a[i]<<=b->c+=d&&e||!f;(g++)--,h>>=~k%l^m|n?o:p.q<=r>=s!=t==u*v/w-x;\n"
	small, big := strings.Repeat(unit, 64), strings.Repeat(unit, 512)
	allocs := func(src string) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := LexAll("t.c", src); err != nil {
				t.Fatal(err)
			}
		})
	}
	toks, _ := LexAll("t.c", small)
	a, b := allocs(small), allocs(big)
	t.Logf("%d tokens: %.0f allocs; 8x the tokens: %.0f allocs", len(toks), a, b)
	if a > float64(len(toks))/100 || b > a+16 {
		t.Errorf("LexAll allocates %.0f times for %d tokens and %.0f for 8x as many", a, len(toks), b)
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{"`", `"unterminated`, "'x", "/* open", `"\q"`} {
		if _, err := LexAll("t.c", src); err == nil {
			t.Errorf("LexAll(%q) should fail", src)
		}
	}
}

func TestParserErrors(t *testing.T) {
	cases := []string{
		"int main( {}",
		"int main() { if }",
		"int main() { x = ; }",
		"int main() { spawn(0) {} }",
		"int main() { for (;;) }",
		"int main() { int a[]; }",
		"int main() { return 1 }",
		"int 5x;",
		"int main() { do x=1; while 1; }",
	}
	for _, src := range cases {
		if _, err := Parse("t.c", src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestSemaErrors(t *testing.T) {
	cases := map[string]string{
		"no main":           `int foo() { return 0; }`,
		"undeclared":        `int main() { return x; }`,
		"redeclared":        `int main() { int a; int a; return 0; }`,
		"void var":          `void v; int main() { return 0; }`,
		"call undeclared":   `int main() { frob(); return 0; }`,
		"arg count":         `int f(int a) { return a; } int main() { return f(1, 2); }`,
		"arg type":          `int f(int *p) { return *p; } int main() { return f(1); }`,
		"$ outside spawn":   `int main() { return $; }`,
		"return in spawn":   `int main() { spawn(0, 1) { return; } return 0; }`,
		"break over spawn":  `int main() { while (1) { spawn(0, 1) { break; } } return 0; }`,
		"call in spawn":     `int f() { return 1; } int main() { spawn(0, 1) { int x = f(); } return 0; }`,
		"malloc in spawn":   `int main() { spawn(0, 1) { int *p = (int*)malloc(4); } return 0; }`,
		"array in spawn":    `int main() { spawn(0, 1) { int a[4]; } return 0; }`,
		"ps non-global":     `int main() { int inc = 1, base = 0; spawn(0,1){ } ps(inc, base); return 0; }`,
		"ps literal inc":    `int g; int main() { ps(1, g); return 0; }`,
		"ps volatile":       `volatile int g; int main() { int i = 1; ps(i, g); return 0; }`,
		"psm non-lvalue":    `int main() { int i = 1; psm(i, 5); return 0; }`,
		"assign to array":   `int a[3]; int b[3]; int main() { a = b; return 0; }`,
		"assign rvalue":     `int main() { 5 = 3; return 0; }`,
		"bad cast":          `float f; int main() { int *p = (int*)f; return 0; }`,
		"deref non-ptr":     `int main() { int x = 1; return *x; }`,
		"index non-array":   `int main() { int x = 1; return x[0]; }`,
		"float shift":       `int main() { float f = 1.0; int x = 1 << f; return 0; }`,
		"void return value": `void f() { return 1; } int main() { return 0; }`,
		"missing return":    `int f() { return; } int main() { return 0; }`,
		"redefined func":    `int main() { return 0; } int main() { return 1; }`,
		"conflicting proto": `int f(int a); float f(int a) { return 0.0; } int main() { return 0; }`,
		"spawn float":       `int main() { spawn(0.5, 1) { } return 0; }`,
		"func as value":     `int f() { return 1; } int main() { return f + 1; }`,
		"brace non-array":   `int x = {1, 2}; int main() { return 0; }`,
		"too many inits":    `int a[2] = {1, 2, 3}; int main() { return 0; }`,
		"nonconst global":   `int f() { return 1; } int g = f(); int main() { return 0; }`,
	}
	for name, src := range cases {
		if _, _, err := check(t, src); err == nil {
			t.Errorf("%s: expected a semantic error", name)
		}
	}
}

func TestSemaPsBaseAllocation(t *testing.T) {
	_, info, err := check(t, `
int a = 5;
int b;
int main() {
    int i = 1;
    spawn(0, 3) {
        int inc = 1;
        ps(inc, a);
        ps(inc, b);
        ps(inc, a);
    }
    i = i;
    return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.PsBases) != 2 {
		t.Fatalf("ps bases = %d, want 2", len(info.PsBases))
	}
	if info.PsBases[0].Name != "a" || info.PsBases[0].GReg != 0 {
		t.Fatalf("first base %+v", info.PsBases[0])
	}
	if info.PsBases[1].GReg != 1 {
		t.Fatal("second base register")
	}
}

func TestNestedSpawnWarning(t *testing.T) {
	_, info, err := check(t, `
int main() {
    spawn(0, 1) {
        spawn(0, 1) { int x = $; }
    }
    return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Warnings) != 1 || !strings.Contains(info.Warnings[0].Msg, "serialized") {
		t.Fatalf("warnings = %v", info.Warnings)
	}
	if w := info.Warnings[0]; w.Pos.Line != 4 || w.Check != "nested-spawn" || w.Severity != diag.Warning {
		t.Fatalf("warning not structured: %+v", w)
	}
}

func TestTypeSizes(t *testing.T) {
	cases := []struct {
		t    *Type
		size int32
	}{
		{TypeInt, 4}, {TypeChar, 1}, {TypeFloat, 4},
		{PtrTo(TypeChar), 4},
		{ArrayOf(TypeInt, 10), 40},
		{ArrayOf(ArrayOf(TypeInt, 3), 2), 24},
		{ArrayOf(TypeChar, 7), 7},
	}
	for _, c := range cases {
		if c.t.Size() != c.size {
			t.Errorf("%s size = %d, want %d", c.t, c.t.Size(), c.size)
		}
	}
}

func TestTypeCompatibility(t *testing.T) {
	if !TypeInt.AssignableFrom(TypeFloat) || !TypeFloat.AssignableFrom(TypeChar) {
		t.Error("arithmetic conversions must be allowed")
	}
	vp := PtrTo(TypeVoid)
	ip := PtrTo(TypeInt)
	if !vp.AssignableFrom(ip) || !ip.AssignableFrom(vp) {
		t.Error("void* wildcard broken")
	}
	if ip.AssignableFrom(PtrTo(TypeFloat)) {
		t.Error("incompatible pointers must be rejected")
	}
	if !ip.Same(PtrTo(TypeInt)) || ip.Same(vp) {
		t.Error("Same broken")
	}
}

// Property: FoldConst agrees with Go's evaluation on random (a op b).
func TestFoldConstProperty(t *testing.T) {
	mk := func(op Tok, a, b int32) Expr {
		x := &IntLit{Val: int64(a)}
		y := &IntLit{Val: int64(b)}
		return &Binary{Op: op, X: x, Y: y}
	}
	f := func(a, b int32, opSel uint8) bool {
		ops := []Tok{ADD, SUB, MUL, AND, OR, XOR, SHL, SHR}
		op := ops[int(opSel)%len(ops)]
		got, ok := FoldConst(mk(op, a, b))
		if !ok {
			return false
		}
		var want int32
		switch op {
		case ADD:
			want = a + b
		case SUB:
			want = a - b
		case MUL:
			want = a * b
		case AND:
			want = a & b
		case OR:
			want = a | b
		case XOR:
			want = a ^ b
		case SHL:
			want = a << uint(b&31)
		case SHR:
			want = a >> uint(b&31)
		}
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRenderRoundTripParses(t *testing.T) {
	f := mustParse(t, `
struct Pt { int x; int y; };
struct Pt origin;
int N = 8;
int A[8] = {1, 2, 3};
float pi = 3.14;
int sum(int *p, int n) {
    int i, s = 0;
    for (i = 0; i < n; i++) s += p[i];
    return s;
}
int classify(int v) {
    switch (v) {
    case 0: return 1;
    case 2:
    case 3: return 5;
    default: return -1;
    }
}
int main() {
    origin.x = 1;
    struct Pt *pp = &origin;
    pp->y = classify(origin.x);
    int found = 0;
    spawn(0, N - 1) {
        int inc = 1;
        if (A[$] > 0) found = $ > 2 ? 1 : 0;
    }
    while (found) { found--; continue; }
    do { found++; } while (found < 0);
    print_string("done\n");
    return sum(A, N);
}`)
	if _, err := Check(f); err != nil {
		t.Fatal(err)
	}
	text := Render(f)
	f2, err := Parse("rendered.c", text)
	if err != nil {
		t.Fatalf("rendered source does not reparse: %v\n%s", err, text)
	}
	if _, err := Check(f2); err != nil {
		t.Fatalf("rendered source does not recheck: %v\n%s", err, text)
	}
}
