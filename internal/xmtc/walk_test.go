package xmtc

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// everyConstruct uses every kind of node the parser builds.
const everyConstruct = `
struct pt { int x; int y; };
int A[4] = {1, 2, 3, 4};
int g = 5;
int base;
float f = 1.5;
struct pt P;
int helper(int a, int *p);
int helper(int a, int *p) { return a + *p; }
int main() {
    int i;
    int n = sizeof(int) + sizeof(g);
    struct pt q;
    struct pt *pp = &q;
    char c = 'c';
    ;
    q.x = -g;
    pp->y = ~q.x;
    if (!n) { n = 1; } else n += 2;
    while (n > 100) n--;
    do { ++n; } while (n < 3);
    for (i = 0; i < 2; i++) { if (i) continue; else break; }
    for (int k = 0; k < 1; k = k + 1) { }
    switch (n) { case 1: case 2: n = 0; break; default: n = 1; }
    spawn(0, 3) {
        int inc = 1;
        ps(inc, base);
        A[$] = (int)f + (n ? A[$] : P.x);
        spawn(0, 1) { A[$] = $; }
    }
    n = helper(n, &A[0]);
    print_string("done\n");
    return A[0];
}
`

// reachable collects every Node reachable from v through struct fields,
// slices, pointers and interfaces, without following symbols or types
// (those lead back into the tree or out of it, not down).
func reachable(v reflect.Value, seen map[Node]bool) {
	switch v.Kind() {
	case reflect.Interface:
		if !v.IsNil() {
			reachable(v.Elem(), seen)
		}
	case reflect.Pointer:
		if v.IsNil() {
			return
		}
		switch v.Interface().(type) {
		case *Symbol, *Type, *Field:
			return
		}
		if n, ok := v.Interface().(Node); ok {
			if seen[n] {
				return
			}
			seen[n] = true
		}
		reachable(v.Elem(), seen)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			reachable(v.Field(i), seen)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			reachable(v.Index(i), seen)
		}
	}
}

// TestInspectReachesEveryChild holds walk.go to the shape of ast.go: the
// nodes Inspect visits are exactly the nodes a reflection walk over every
// field finds. A child field ast.go gains and children does not enumerate
// fails it.
func TestInspectReachesEveryChild(t *testing.T) {
	f, err := Parse("t.c", everyConstruct)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Check(f); err != nil {
		t.Fatal(err)
	}
	want := map[Node]bool{}
	reachable(reflect.ValueOf(f), want)
	got := map[Node]bool{}
	Inspect(f, func(n Node) bool {
		if got[n] {
			t.Errorf("%T at %s visited twice", n, n.GetPos())
		}
		got[n] = true
		return true
	})
	kinds := map[string]bool{}
	for n := range want {
		kinds[fmt.Sprintf("%T", n)] = true
		if !got[n] {
			t.Errorf("Inspect misses %T at %s", n, n.GetPos())
		}
	}
	for n := range got {
		if !want[n] {
			t.Errorf("Inspect visits %T at %s, which no field holds", n, n.GetPos())
		}
	}
	for _, k := range strings.Fields(`*xmtc.File *xmtc.VarDecl *xmtc.FuncDecl
		*xmtc.BlockStmt *xmtc.DeclStmt *xmtc.ExprStmt *xmtc.EmptyStmt *xmtc.IfStmt
		*xmtc.WhileStmt *xmtc.DoStmt *xmtc.ForStmt *xmtc.SwitchStmt *xmtc.CaseClause
		*xmtc.BreakStmt *xmtc.ContinueStmt *xmtc.ReturnStmt *xmtc.SpawnStmt
		*xmtc.Ident *xmtc.IntLit *xmtc.FloatLit *xmtc.StringLit *xmtc.TidExpr
		*xmtc.Binary *xmtc.Unary *xmtc.Assign *xmtc.IncDec *xmtc.Cond *xmtc.Call
		*xmtc.Index *xmtc.Member *xmtc.Cast *xmtc.SizeofExpr`) {
		if !kinds[k] {
			t.Errorf("the source builds no %s; extend everyConstruct", k)
		}
	}
}

// TestEachExprOrder pins the statement-by-statement order EachExpr gives
// the analyzer: a loop's own expressions before its nested statements.
func TestEachExprOrder(t *testing.T) {
	f, err := Parse("t.c", `int main() { int i; int n; for (i = 0; i < 3; i++) n = i; do n--; while (n); return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	EachExpr(f.Decls[0].(*FuncDecl).Body, func(e Expr) { got = append(got, RenderExpr(e)) })
	const want = "(i < 3), i, 3, i++, i, i = 0, i, 0, n = i, n, i, n, n--, n, 0"
	if strings.Join(got, ", ") != want {
		t.Errorf("EachExpr order:\n got %s\nwant %s", strings.Join(got, ", "), want)
	}
}
