package codegen_test

import (
	"strings"
	"testing"

	"xmtgo/internal/codegen"
)

func TestStructBasics(t *testing.T) {
	both(t, `
struct Point { int x; int y; };
struct Point origin;
int main() {
    struct Point p;
    p.x = 3;
    p.y = 4;
    origin.x = p.x * p.x;
    origin.y = p.y * p.y;
    print_int(origin.x + origin.y);   // 25
    return 0;
}`, "25")
}

func TestStructPointersAndArrow(t *testing.T) {
	both(t, `
struct Node { int val; struct Node *next; };
struct Node a, b, c;
int main() {
    a.val = 1; b.val = 2; c.val = 3;
    a.next = &b;
    b.next = &c;
    c.next = (struct Node*)0;
    struct Node *p = &a;
    int sum = 0;
    while (p != 0) {
        sum += p->val;
        p = p->next;
    }
    print_int(sum);
    return 0;
}`, "6")
}

func TestStructArraysAndNesting(t *testing.T) {
	both(t, `
struct Inner { int a; char tag; int b; };
struct Outer { struct Inner in; int extra; };
struct Outer arr[4];
int main() {
    int i;
    for (i = 0; i < 4; i++) {
        arr[i].in.a = i;
        arr[i].in.tag = 'A' + i;
        arr[i].in.b = i * 10;
        arr[i].extra = 100;
    }
    int sum = 0;
    for (i = 0; i < 4; i++) {
        sum += arr[i].in.a + arr[i].in.b + arr[i].extra;
    }
    print_int(sum);                   // (0+1+2+3) + (0+10+20+30) + 400 = 466
    print_char(arr[2].in.tag);        // 'C'
    print_int(sizeof(struct Outer));  // 12 (inner) + 4
    return 0;
}`, "466C16")
}

func TestStructByPointerFunction(t *testing.T) {
	both(t, `
struct Vec { int x; int y; int z; };
int dot(struct Vec *a, struct Vec *b) {
    return a->x * b->x + a->y * b->y + a->z * b->z;
}
void scale(struct Vec *v, int k) {
    v->x *= k; v->y *= k; v->z *= k;
}
struct Vec u;
int main() {
    struct Vec v;
    u.x = 1; u.y = 2; u.z = 3;
    v.x = 4; v.y = 5; v.z = 6;
    scale(&v, 2);
    print_int(dot(&u, &v));   // 1*8+2*10+3*12 = 64
    return 0;
}`, "64")
}

func TestStructInSpawn(t *testing.T) {
	// Global struct arrays accessed from parallel code; one struct field
	// accumulated with psm.
	both(t, `
struct Cell { int weight; int hits; };
struct Cell grid[64];
int totalWeight = 0;
int main() {
    int i;
    for (i = 0; i < 64; i++) grid[i].weight = i;
    spawn(0, 63) {
        int w = grid[$].weight;
        grid[$].hits = w > 31 ? 1 : 0;
        psm(w, totalWeight);
    }
    int hits = 0;
    for (i = 0; i < 64; i++) hits += grid[i].hits;
    print_int(totalWeight);   // 2016
    print_char(' ');
    print_int(hits);          // 32
    return 0;
}`, "2016 32")
}

func TestStructCapturedByReference(t *testing.T) {
	opts := codegen.DefaultOptions()
	opts.DumpPrepass = true
	res, p := compile(t, `
struct Acc { int lo; int hi; };
int A[32];
int main() {
    int i;
    for (i = 0; i < 32; i++) A[i] = i;
    struct Acc acc;
    acc.lo = 0;
    acc.hi = 0;
    spawn(0, 31) {
        int v = A[$];
        if ($ < 16) { psm(v, acc.lo); } else { psm(v, acc.hi); }
    }
    print_int(acc.lo);
    print_char(' ');
    print_int(acc.hi);
    return 0;
}`, opts)
	if !strings.Contains(res.PrepassSource, "__cap_acc") {
		t.Fatalf("struct not captured:\n%s", res.PrepassSource)
	}
	want := "120 376"
	if got := runFunc(t, p); got != want {
		t.Fatalf("functional %q, want %q", got, want)
	}
}

func TestStructMalloc(t *testing.T) {
	both(t, `
struct Pair { int a; int b; };
int main() {
    struct Pair *p = (struct Pair*)malloc(sizeof(struct Pair) * 3);
    int i;
    for (i = 0; i < 3; i++) {
        p[i].a = i;
        p[i].b = i * i;
    }
    print_int(p[2].a + p[2].b);  // 6
    return 0;
}`, "6")
}

func TestStructErrors(t *testing.T) {
	cases := map[string]string{
		"undefined tag":     `struct Missing m; int main() { return 0; }`,
		"unknown member":    `struct S { int a; }; struct S s; int main() { return s.q; }`,
		"dot on non-struct": `int main() { int x = 1; return x.a; }`,
		"arrow on struct":   `struct S { int a; }; struct S s; int main() { return s->a; }`,
		"struct param":      `struct S { int a; }; int f(struct S s) { return 0; } int main() { return 0; }`,
		"struct return":     `struct S { int a; }; struct S f() { struct S s; return s; } int main() { return 0; }`,
		"struct assign":     `struct S { int a; }; struct S x, y; int main() { x = y; return 0; }`,
		"struct in spawn":   `struct S { int a; }; int main() { spawn(0,1) { struct S s; s.a = $; } return 0; }`,
		"redefined tag":     `struct S { int a; }; struct S { int b; }; int main() { return 0; }`,
		"empty struct":      `struct S { }; int main() { return 0; }`,
		"dup member":        `struct S { int a; int a; }; int main() { return 0; }`,
	}
	for name, src := range cases {
		if _, err := codegen.Compile("s.c", src, codegen.DefaultOptions()); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
}

func TestSwitchStatement(t *testing.T) {
	both(t, `
int classify(int v) {
    int r = 0;
    switch (v) {
    case 0:
        r = 100;
        break;
    case 1:
    case 2:
        r = 200;
        break;
    case 3:
        r = 300;            // falls through
    case 4:
        r += 5;
        break;
    default:
        r = -1;
    }
    return r;
}
int main() {
    int i;
    for (i = 0; i < 6; i++) {
        print_int(classify(i));
        print_char(' ');
    }
    return 0;
}`, "100 200 200 305 5 -1 ")
}

func TestSwitchInSpawn(t *testing.T) {
	both(t, `
int B[32];
int total = 0;
int main() {
    spawn(0, 31) {
        int v = 0;
        switch ($ & 3) {
        case 0: v = 1; break;
        case 1: v = 10; break;
        case 2: v = 100; break;
        default: v = 1000;
        }
        psm(v, total);
    }
    print_int(total);   // 8*(1+10+100+1000)
    return 0;
}`, "8888")
}

func TestSwitchErrors(t *testing.T) {
	cases := map[string]string{
		"duplicate case":     `int main() { switch (1) { case 1: break; case 1: break; } return 0; }`,
		"duplicate default":  `int main() { switch (1) { default: break; default: break; } return 0; }`,
		"non-const case":     `int main() { int x = 1; switch (1) { case x: break; } return 0; }`,
		"float tag":          `int main() { float f = 1.0; switch (f) { case 1: break; } return 0; }`,
		"stmt before label":  `int main() { switch (1) { print_int(1); case 1: break; } return 0; }`,
		"continue in switch": `int main() { switch (1) { case 1: continue; } return 0; }`,
	}
	for name, src := range cases {
		if _, err := codegen.Compile("sw.c", src, codegen.DefaultOptions()); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
}

func TestPsBaseAddressRejected(t *testing.T) {
	_, err := codegen.Compile("pb.c", `
int base = 0;
int main() {
    int *p = &base;      // base becomes a ps base below
    spawn(0, 3) {
        int inc = 1;
        ps(inc, base);
    }
    return *p;
}`, codegen.DefaultOptions())
	if err == nil || !strings.Contains(err.Error(), "global register") {
		t.Fatalf("want ps-base address error, got %v", err)
	}
}
