package prepass

import (
	"strings"
	"testing"

	"xmtgo/internal/xmtc"
)

func run(t *testing.T, src string, opts Options) *xmtc.File {
	t.Helper()
	f, err := xmtc.Parse("t.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := xmtc.Check(f); err != nil {
		t.Fatalf("check: %v", err)
	}
	if err := Run(f, opts); err != nil {
		t.Fatalf("prepass: %v", err)
	}
	return f
}

func funcNames(f *xmtc.File) []string {
	var out []string
	for _, d := range f.Decls {
		if fd, ok := d.(*xmtc.FuncDecl); ok && fd.Body != nil {
			out = append(out, fd.Name)
		}
	}
	return out
}

// TestOutliningFig8 reproduces the paper's Fig. 8: the spawn is extracted
// into a new function; the read-only array is passed by value (as a
// pointer) and the written scalar by reference.
func TestOutliningFig8(t *testing.T) {
	f := run(t, `
int A[8];
int counter = 0;
int main() {
    int found = 0;
    spawn(0, 7) {
        if (A[$] != 0) found = 1;
    }
    if (found) counter += 1;
    return 0;
}`, Options{})
	names := funcNames(f)
	if len(names) != 2 || names[1] != "__outl_main_0" {
		t.Fatalf("functions = %v", names)
	}
	text := xmtc.Render(f)
	// The replacement call passes &found (by reference).
	if !strings.Contains(text, "__outl_main_0(&found)") {
		t.Fatalf("expected by-reference capture of found:\n%s", text)
	}
	// Inside the outlined function, found is accessed through the pointer.
	if !strings.Contains(text, "*__cap_found") {
		t.Fatalf("expected dereference rewrite:\n%s", text)
	}
	// The global A stays a direct global access (not captured).
	if strings.Contains(text, "__cap_A") {
		t.Fatalf("globals must not be captured:\n%s", text)
	}
}

func TestOutliningByValue(t *testing.T) {
	f := run(t, `
int B[16];
int main() {
    int scale = 3;
    spawn(0, 15) {
        B[$] = $ * scale;
    }
    return 0;
}`, Options{})
	text := xmtc.Render(f)
	// scale is only read: by value, no dereference.
	if !strings.Contains(text, "__outl_main_0(scale)") {
		t.Fatalf("expected by-value capture:\n%s", text)
	}
	if strings.Contains(text, "*__cap_scale") {
		t.Fatalf("read-only capture must not be by reference:\n%s", text)
	}
}

func TestOutliningLocalArrayDecays(t *testing.T) {
	f := run(t, `
int main() {
    int buf[8];
    int i;
    for (i = 0; i < 8; i++) buf[i] = 0;
    spawn(0, 7) {
        buf[$] = $;
    }
    return buf[3];
}`, Options{})
	text := xmtc.Render(f)
	// The local array is passed by value as a pointer (writes through it
	// still reach the caller's storage, like Fig. 8's array A).
	if !strings.Contains(text, "__outl_main_0(buf)") {
		t.Fatalf("expected array capture by decayed value:\n%s", text)
	}
}

func TestOutliningBoundsCaptured(t *testing.T) {
	f := run(t, `
int B[64];
int main() {
    int n = 64;
    spawn(0, n - 1) {
        B[$] = 1;
    }
    return 0;
}`, Options{})
	text := xmtc.Render(f)
	if !strings.Contains(text, "__outl_main_0(n)") {
		t.Fatalf("spawn bounds must be captured too:\n%s", text)
	}
}

// TestOutliningCaptureOrder pins the outlined function's parameter order:
// captures in first-use order through the body, then through the bounds.
// The order reaches the emitted assembly (argument registers).
func TestOutliningCaptureOrder(t *testing.T) {
	f := run(t, `
int B[64];
int main() {
    int lo = 0;
    int hi = 63;
    int k = 2;
    int m = 3;
    spawn(lo, hi) {
        B[$] = m + k + lo;
    }
    return 0;
}`, Options{})
	text := xmtc.Render(f)
	if !strings.Contains(text, "__outl_main_0(m, k, lo, hi)") {
		t.Fatalf("want the body's captures, then the bounds':\n%s", text)
	}
}

func TestSerializedNestedSpawnBecomesLoop(t *testing.T) {
	f := run(t, `
int M[16];
int main() {
    spawn(0, 3) {
        spawn(0, 3) {
            M[$] = $;
        }
    }
    return 0;
}`, Options{})
	text := xmtc.Render(f)
	if strings.Count(text, "spawn(") != 1 {
		t.Fatalf("inner spawn must be serialized into a loop:\n%s", text)
	}
	if !strings.Contains(text, "for (") {
		t.Fatalf("expected a serial loop:\n%s", text)
	}
}

func TestClusteringRewrite(t *testing.T) {
	f := run(t, `
int B[100];
int main() {
    spawn(0, 99) {
        B[$] = $;
    }
    return 0;
}`, Options{ClusterFactor: 4})
	text := xmtc.Render(f)
	// The rewritten spawn covers thread groups, with an inner loop.
	if !strings.Contains(text, "for (") {
		t.Fatalf("expected the coarsening loop:\n%s", text)
	}
	if !strings.Contains(text, "/ 4") {
		t.Fatalf("expected group-count division by the factor:\n%s", text)
	}
}

func TestPsIncrementCaptureRejected(t *testing.T) {
	f, err := xmtc.Parse("t.c", `
int base = 0;
int main() {
    int inc = 1;
    spawn(0, 7) {
        ps(inc, base);
    }
    return inc;
}`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := xmtc.Check(f); err != nil {
		t.Fatal(err)
	}
	if err := Run(f, Options{}); err == nil ||
		!strings.Contains(err.Error(), "increment") {
		t.Fatalf("want ps-increment capture error, got %v", err)
	}
}

func TestDisableOutline(t *testing.T) {
	f := run(t, `
int B[8];
int main() {
    spawn(0, 7) { B[$] = 1; }
    return 0;
}`, Options{DisableOutline: true})
	if len(funcNames(f)) != 1 {
		t.Fatalf("outlining ran despite DisableOutline: %v", funcNames(f))
	}
}
