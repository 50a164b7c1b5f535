package dataflow_test

import (
	"testing"

	"xmtgo/internal/analysis/dataflow"
	"xmtgo/internal/xmtc"
)

// build parses, checks and lowers the first function of src.
func build(t *testing.T, src string) *dataflow.Graph {
	t.Helper()
	f, err := xmtc.Parse("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := xmtc.Check(f); err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if fn, ok := d.(*xmtc.FuncDecl); ok && fn.Body != nil {
			return dataflow.Build(fn)
		}
	}
	t.Fatal("no function in source")
	return nil
}

func TestRegionShape(t *testing.T) {
	g := build(t, `
int A[8];
int main() {
    spawn(2, 5) {
        A[$] = 1;
    }
    return 0;
}`)
	if len(g.Regions) != 1 {
		t.Fatalf("regions = %d, want 1", len(g.Regions))
	}
	r := g.Regions[0]
	if !r.BoundsKnown || r.LowConst != 2 || r.HighConst != 5 {
		t.Errorf("bounds = (%v, %d, %d), want known (2, 5)", r.BoundsKnown, r.LowConst, r.HighConst)
	}
	if r.SingleThread() {
		t.Error("spawn(2,5) is not single-thread")
	}
	if r.Entry == nil || r.Exit == nil {
		t.Fatal("region missing entry/exit")
	}
	if r.Exit.Region != nil {
		t.Error("the join block must be serial (outside the region)")
	}
	// The carried back edge: the body's last block loops to the entry.
	carried := false
	for _, p := range r.Entry.Preds {
		if p.Region == r {
			carried = true
		}
	}
	if !carried {
		t.Error("missing carried back edge into the region entry")
	}
}

func TestNestedSpawnFoldsIntoOuterRegion(t *testing.T) {
	g := build(t, `
int A[8];
int main() {
    spawn(0, 7) {
        spawn(0, 3) {
            A[$] = 1;
        }
    }
    return 0;
}`)
	if len(g.Regions) != 1 {
		t.Fatalf("regions = %d, want 1 (nested spawn is serialized)", len(g.Regions))
	}
}

func TestEscapesRecorded(t *testing.T) {
	// Sema itself rejects these escapes, so lower the unchecked AST — the
	// configuration xmtlint's spawn-dataflow pass sees.
	f, err := xmtc.Parse("t.c", `
int A[8];
int main() {
    int i;
    for (i = 0; i < 4; i = i + 1) {
        spawn(0, 7) {
            if (A[$] < 0) { break; }
            if (A[$] > 9) { return 1; }
        }
    }
    return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	var g *dataflow.Graph
	for _, d := range f.Decls {
		if fn, ok := d.(*xmtc.FuncDecl); ok && fn.Body != nil {
			g = dataflow.Build(fn)
		}
	}
	if g == nil || len(g.Regions) != 1 {
		t.Fatalf("want 1 region")
	}
	kinds := map[dataflow.EscapeKind]int{}
	for _, e := range g.Regions[0].Escapes {
		kinds[e.Kind]++
	}
	if kinds[dataflow.EscBreak] != 1 || kinds[dataflow.EscReturn] != 1 {
		t.Errorf("escapes = %v, want one break and one return", kinds)
	}
}

func TestSyncCounting(t *testing.T) {
	g := build(t, `
int x = 0;
int y = 0;
int main() {
    spawn(0, 7) {
        int inc = 1;
        if ($ == 0) { x = 1; }
        ps(inc, y);
        print_int(x);
    }
    return 0;
}`)
	r := g.Regions[0]
	if r.Syncs() != 1 {
		t.Fatalf("region syncs = %d, want 1", r.Syncs())
	}
	// The write of x precedes the ps (SyncIdx 0), the read follows it.
	var writeIdx, readIdx = -1, -1
	for _, blk := range r.Blocks {
		for _, ref := range blk.Refs {
			if ref.Sym == nil || ref.Sym.Name != "x" {
				continue
			}
			if ref.Kind == dataflow.RefDef {
				writeIdx = ref.SyncIdx - r.SyncStart
			} else if ref.Kind == dataflow.RefUse {
				readIdx = ref.SyncIdx - r.SyncStart
			}
		}
	}
	if writeIdx != 0 || readIdx != 1 {
		t.Errorf("sync indices: write=%d read=%d, want 0 and 1", writeIdx, readIdx)
	}
}

func TestReachingDefsPointQuery(t *testing.T) {
	g := build(t, `
int n = 3;
int main() {
    int x;
    if (n > 0) { x = 1; }
    print_int(x);
    return 0;
}`)
	reach := g.ReachingDefs()
	// Find the use of x (the print_int argument).
	for _, blk := range g.Blocks {
		for i, ref := range blk.Refs {
			if ref.Kind != dataflow.RefUse || ref.Sym == nil || ref.Sym.Name != "x" {
				continue
			}
			defs := reach.At(blk, i, ref.Sym)
			if len(defs) != 2 {
				t.Fatalf("reaching defs at use of x = %d, want 2 (bare decl + branch store)", len(defs))
			}
			return
		}
	}
	t.Fatal("use of x not found")
}

func TestLivenessDeadAfter(t *testing.T) {
	g := build(t, `
int main() {
    int x;
    x = 1;
    x = 2;
    print_int(x);
    return 0;
}`)
	live := g.Liveness()
	var stores []struct {
		blk *dataflow.Block
		i   int
	}
	for _, blk := range g.Blocks {
		for i, ref := range blk.Refs {
			if ref.Kind == dataflow.RefDef && !ref.Decl && ref.Sym != nil && ref.Sym.Name == "x" {
				stores = append(stores, struct {
					blk *dataflow.Block
					i   int
				}{blk, i})
			}
		}
	}
	if len(stores) != 2 {
		t.Fatalf("stores to x = %d, want 2", len(stores))
	}
	if !live.DeadAfter(stores[0].blk, stores[0].i, g.Blocks[stores[0].blk.ID].Refs[stores[0].i].Sym) {
		t.Error("x = 1 should be dead (overwritten before any read)")
	}
	if live.DeadAfter(stores[1].blk, stores[1].i, g.Blocks[stores[1].blk.ID].Refs[stores[1].i].Sym) {
		t.Error("x = 2 should be live (read by print_int)")
	}
}

func TestDisjoint(t *testing.T) {
	reg := &dataflow.Region{LowConst: 0, HighConst: 7, BoundsKnown: true}
	cases := []struct {
		name           string
		a1, c1, a2, c2 int32
		reg            *dataflow.Region
		want           bool
	}{
		{"distinct constants", 0, 3, 0, 5, nil, true},
		{"same constant", 0, 3, 0, 3, nil, false},
		{"same element per thread", 1, 0, 1, 0, nil, true},
		{"stride parity", 2, 0, 2, 1, nil, true},
		{"unit stride offset", 1, 0, 1, 1, reg, false},
		{"offset beyond range", 1, 8, 1, 0, reg, true},
		{"const hits a thread", 1, 0, 0, 3, reg, false},
		{"const outside range", 1, 0, 0, 9, reg, true},
		{"mixed strides collide", 1, 0, 2, 0, reg, false},
		{"mixed strides no bounds", 1, 0, 2, 1, nil, false},
	}
	for _, c := range cases {
		if got := dataflow.Disjoint(c.a1, c.c1, c.a2, c.c2, c.reg); got != c.want {
			t.Errorf("%s: Disjoint(%d,%d,%d,%d) = %v, want %v", c.name, c.a1, c.c1, c.a2, c.c2, got, c.want)
		}
	}
}

func TestAffineIndexChasing(t *testing.T) {
	g := build(t, `
int A[32];
int main() {
    spawn(0, 7) {
        int base = 2 * $;
        int i = base + 1;
        A[i] = 1;
    }
    return 0;
}`)
	reach := g.ReachingDefs()
	for _, blk := range g.Blocks {
		for i, ref := range blk.Refs {
			if ref.Kind == dataflow.RefDef && ref.Sym != nil && ref.Sym.Name == "A" {
				a, c, ok := reach.AffineIndex(blk, i, ref.Index)
				if !ok || a != 2 || c != 1 {
					t.Fatalf("AffineIndex = (%d, %d, %v), want (2, 1, true)", a, c, ok)
				}
				return
			}
		}
	}
	t.Fatal("store to A not found")
}

func TestBuildToleratesUncheckedAST(t *testing.T) {
	// No sema: symbols are nil. The builder must not panic and must still
	// record the boundary escape.
	f, err := xmtc.Parse("t.c", `
int main() {
    spawn(0, 7) {
        return 1;
    }
    return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if fn, ok := d.(*xmtc.FuncDecl); ok && fn.Body != nil {
			g := dataflow.Build(fn)
			if len(g.Regions) != 1 || len(g.Regions[0].Escapes) != 1 {
				t.Fatalf("unchecked AST: regions/escapes not recorded")
			}
		}
	}
}

// TidDependent must see $ routed through shared data (u = esrc[$]; A[u])
// but deliberately stay quiet on pure index arithmetic of $ (the FFT
// butterfly partition pattern) and on locals it cannot chase.
func TestTidDependentDataRouting(t *testing.T) {
	g := build(t, `
int E[32];
int A[32];
int main() {
    spawn(0, 7) {
        int u = E[$];
        int v = E[u];
        int w = ($ * 2) + 1;
        A[u] = 1;
        A[v] = 2;
        A[w] = 3;
    }
    return 0;
}`)
	reach := g.ReachingDefs()
	want := map[string]bool{"u": true, "v": true, "w": false}
	seen := 0
	for _, blk := range g.Blocks {
		for i, ref := range blk.Refs {
			if ref.Kind != dataflow.RefDef || ref.Sym == nil || ref.Sym.Name != "A" {
				continue
			}
			id, ok := ref.Index.(*xmtc.Ident)
			if !ok {
				t.Fatalf("store index is not a plain local: %s", ref.Text)
			}
			seen++
			if got := reach.TidDependent(blk, i, ref.Index); got != want[id.Sym.Name] {
				t.Errorf("TidDependent(A[%s]) = %v, want %v", id.Sym.Name, got, want[id.Sym.Name])
			}
		}
	}
	if seen != 3 {
		t.Fatalf("found %d stores to A, want 3", seen)
	}
}

// TestSpinLoopBodySpan pins each spin loop's body span: the body's blocks
// only (not the condition, nor a for loop's post clause), dead code after a
// break included, and every prefix-sum sync carrying its call.
func TestSpinLoopBodySpan(t *testing.T) {
	g := build(t, `
int flag = 0;
int g = 0;
int main() {
    spawn(0, 7) {
        for (; flag == 0; flag++) { g = 1; }
        do { int one = 1; psm(one, g); } while (flag == 1);
        while (flag == 2) { g = 2; break; g = 3; }
    }
    return 0;
}`)
	if len(g.SpinLoops) != 3 {
		t.Fatalf("spin loops = %d, want 3", len(g.SpinLoops))
	}
	var got [3]string
	for i, sl := range g.SpinLoops {
		for _, blk := range sl.Body {
			for _, ref := range blk.Refs {
				switch {
				case ref.Kind == dataflow.RefSync:
					got[i] += " sync:" + ref.Call.Name
				case ref.Kind == dataflow.RefDef:
					got[i] += " def:" + ref.Sym.Name
				case ref.Kind == dataflow.RefUse:
					got[i] += " use:" + ref.Sym.Name
				}
			}
		}
	}
	want := [3]string{
		" def:g",                            // the for post clause's flag++ is outside
		" def:one sync:psm use:one def:one", // the do condition is outside
		" def:g def:g",                      // the dead store after break is inside
	}
	if got != want {
		t.Errorf("body refs = %q, want %q", got, want)
	}
}
