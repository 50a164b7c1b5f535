package codegen_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"xmtgo/internal/asm"
	"xmtgo/internal/codegen"
	"xmtgo/internal/config"
)

// corpus is a set of programs whose output must be identical at -O0 and
// -O1 and under every XMT-optimization toggle: the optimizer must preserve
// semantics.
var corpus = []string{
	`int main() {
        int i, s = 0;
        for (i = 1; i <= 100; i++) s += i * i - (i << 1) + i % 7;
        print_int(s);
        return 0;
    }`,
	`int fact(int n) { return n <= 1 ? 1 : n * fact(n - 1); }
    int main() { print_int(fact(10)); return 0; }`,
	`int A[32];
    int total = 0;
    int main() {
        int i;
        for (i = 0; i < 32; i++) A[i] = (i * 37) % 13;
        spawn(0, 31) {
            int v = A[$] * 2;
            psm(v, total);
        }
        print_int(total);
        return 0;
    }`,
	`float geo(float r, int n) {
        float s = 0.0, t = 1.0;
        int i;
        for (i = 0; i < n; i++) { s += t; t *= r; }
        return s;
    }
    int main() { print_int((int)(geo(0.5, 20) * 1000.0)); return 0; }`,
	`int B[64];
    int count = 0;
    int main() {
        spawn(0, 63) {
            int inc = 1;
            if (($ & 3) == 0) {
                ps(inc, count);
                B[inc] = $;
            }
        }
        print_int(count);
        return 0;
    }`,
	`int main() {
        unsigned u = 3000000000u > 1u ? 40u : 2u;
        int x = -7;
        print_int((int)(u >> 2));
        print_int(x / 2);
        print_int(x % 3);
        char c = 'A' + 2;
        print_char(c);
        return 0;
    }`,
}

func outputOf(t *testing.T, src string, opts codegen.Options) string {
	t.Helper()
	_, p := compile(t, src, opts)
	return runFunc(t, p)
}

func TestOptimizerPreservesSemantics(t *testing.T) {
	for i, src := range corpus {
		base := codegen.Options{OptLevel: 0, PrefetchSlots: 4}
		want := outputOf(t, src, base)
		variants := []codegen.Options{
			codegen.DefaultOptions(),
			{OptLevel: 1, NoNBStore: true, PrefetchSlots: 4},
			{OptLevel: 1, NoPrefetch: true, PrefetchSlots: 4},
			{OptLevel: 1, ClusterFactor: 3, PrefetchSlots: 4},
			{OptLevel: 1, ClusterFactor: 7, PrefetchSlots: 2},
		}
		for j, opts := range variants {
			if got := outputOf(t, src, opts); got != want {
				t.Errorf("program %d variant %d: got %q, want %q", i, j, got, want)
			}
		}
	}
}

// TestOptimizedCycleOutputs: the same corpus under cycle-accurate
// simulation agrees with functional mode.
func TestOptimizedCycleOutputs(t *testing.T) {
	for i, src := range corpus {
		_, p := compile(t, src, codegen.DefaultOptions())
		want := runFunc(t, p)
		got, _ := runCycle(t, p, config.FPGA64())
		if got != want {
			t.Errorf("program %d: cycle %q vs functional %q", i, got, want)
		}
	}
}

// TestClusteringFactorProperty: thread clustering preserves the result of
// an order-insensitive parallel reduction for any factor.
func TestClusteringFactorProperty(t *testing.T) {
	src := `
int A[97];
int total = 0;
int main() {
    int i;
    for (i = 0; i < 97; i++) A[i] = i + 1;
    spawn(0, 96) {
        int v = A[$];
        psm(v, total);
    }
    print_int(total);
    return 0;
}`
	f := func(factor uint8) bool {
		opts := codegen.DefaultOptions()
		opts.ClusterFactor = int(factor%16) + 1
		return outputOf(t, src, opts) == "4753"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestRegisterSpillErrorInParallelCode reproduces the paper's §IV-D rule:
// a spawn body needing more registers than available is a compile error,
// not a silent stack spill.
func TestRegisterSpillErrorInParallelCode(t *testing.T) {
	var b strings.Builder
	b.WriteString("int A[64];\nint main() {\n    spawn(0, 63) {\n")
	// Declare many live locals, then consume them all at once.
	n := 40
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "        int v%d = A[$] + %d;\n", i, i)
	}
	b.WriteString("        int acc = 0;\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "        acc += v%d * v%d;\n", i, (i+1)%n)
	}
	b.WriteString("        A[$] = acc;\n    }\n    return 0;\n}\n")

	// The error names the same vreg on every compile.
	var first *codegen.SpillError
	for i := 0; i < 20; i++ {
		_, err := codegen.Compile("spill.c", b.String(), codegen.DefaultOptions())
		var se *codegen.SpillError
		if !errors.As(err, &se) {
			t.Fatalf("expected a register spill error in parallel code, got %v", err)
		}
		if !strings.Contains(err.Error(), "register spill in parallel code") {
			t.Fatalf("wrong error: %v", err)
		}
		if first == nil {
			first = se
		} else if *se != *first {
			t.Fatalf("compile %d: spill error %+v, first compile %+v", i, *se, *first)
		}
	}
}

// TestSerialSpillsWork: the same pressure in serial code spills to the
// stack and still computes correctly.
func TestSerialSpillsWork(t *testing.T) {
	var b strings.Builder
	b.WriteString("int main() {\n")
	n := 40
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "    volatile int s%d = %d;\n", i, i)
		fmt.Fprintf(&b, "    int v%d = s%d + 1;\n", i, i)
	}
	b.WriteString("    int acc = 0;\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "    acc += v%d;\n", i)
	}
	b.WriteString("    print_int(acc);\n    return 0;\n}\n")
	want := fmt.Sprint(n*(n-1)/2 + n)
	if got := outputOf(t, b.String(), codegen.DefaultOptions()); got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

// TestScrambleLayoutFixedByPostpass reproduces Fig. 9 end to end through
// the compiler: the scrambled layout is repaired by the post-pass and the
// program still runs correctly.
func TestScrambleLayoutFixedByPostpass(t *testing.T) {
	src := `
int A[32];
int hits = 0;
int main() {
    int i;
    for (i = 0; i < 32; i++) A[i] = i % 3;
    spawn(0, 31) {
        int inc = 1;
        if (A[$] != 0) {
            ps(inc, hits);
        }
    }
    print_int(hits);
    return 0;
}`
	opts := codegen.DefaultOptions()
	opts.ScrambleLayout = true
	res, err := codegen.Compile("fig9.c", src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.RelocatedBlocks == 0 {
		t.Fatal("scrambled layout produced nothing for the post-pass to relocate")
	}
	p, err := asm.Assemble(res.Unit)
	if err != nil {
		t.Fatal(err)
	}
	want := "21" // 32 - ceil(32/3): indices where i%3 != 0
	if got := runFunc(t, p); got != want {
		t.Fatalf("scrambled+fixed output %q, want %q", got, want)
	}
	got, _ := runCycle(t, p, config.FPGA64())
	if got != want {
		t.Fatalf("cycle: %q, want %q", got, want)
	}
}

// TestGoldenCycleCounts pins FPGA64 cycle counts for a fixed corpus — the
// self-consistency regression standing in for the paper's verification of
// XMTSim against the Paraleap FPGA prototype.
func TestGoldenCycleCounts(t *testing.T) {
	golden := []struct {
		name string
		src  string
	}{
		{"serial-sum", `int main() { int i, s = 0; for (i = 0; i < 100; i++) s += i; print_int(s); return 0; }`},
		{"par-fill", `int B[64]; int main() { spawn(0, 63) { B[$] = $; } print_int(B[63]); return 0; }`},
	}
	for _, g := range golden {
		_, p := compile(t, g.src, codegen.DefaultOptions())
		_, c1 := runCycle(t, p, config.FPGA64())
		_, c2 := runCycle(t, p, config.FPGA64())
		if c1 != c2 {
			t.Fatalf("%s: simulation not deterministic: %d vs %d", g.name, c1, c2)
		}
		if c1 <= 0 || c1 > 1_000_000 {
			t.Fatalf("%s: implausible cycle count %d", g.name, c1)
		}
		t.Logf("%s: %d cycles", g.name, c1)
	}
}

func TestDumpIR(t *testing.T) {
	opts := codegen.DefaultOptions()
	opts.DumpIR = true
	res, err := codegen.Compile("d.c", `int main() { print_int(2 + 3); return 0; }`, opts)
	if err != nil {
		t.Fatal(err)
	}
	dump, ok := res.IRDumps["main"]
	if !ok || !strings.Contains(dump, "func main") {
		t.Fatalf("IR dump missing: %v", res.IRDumps)
	}
	// 2+3 must be folded in the dump.
	if !strings.Contains(dump, "= 5") {
		t.Fatalf("constant folding not visible in IR:\n%s", dump)
	}
}

func TestCompileErrorsSurface(t *testing.T) {
	cases := []string{
		`int main() { return x; }`,
		`int main() { spawn(0, 1) { int *p = &$; } return 0; }`,
		"int main() {",
	}
	for _, src := range cases {
		if _, err := codegen.Compile("e.c", src, codegen.DefaultOptions()); err == nil {
			t.Errorf("Compile(%q) should fail", src)
		}
	}
}

// TestBcastLiveRegisters (§IV-B): values computed in serial code and read
// by the spawn body must be broadcast to the TCUs — the compiler chose
// broadcasting over reloading "because it conserves memory bandwidth".
func TestBcastLiveRegisters(t *testing.T) {
	res, p := compile(t, `
int B[32];
int main() {
    int scaleA = 3;
    int scaleB = 5;
    int bias = 7;
    spawn(0, 31) {
        B[$] = $ * scaleA + $ * scaleB + bias;
    }
    print_int(B[10]);   // 10*3 + 10*5 + 7 = 87
    return 0;
}`, codegen.DefaultOptions())
	text := asm.Print(res.Unit)
	if n := strings.Count(text, "bcast"); n < 3 {
		t.Fatalf("expected at least 3 bcast instructions (captured values), got %d:\n%s", n, text)
	}
	if got := runFunc(t, p); got != "87" {
		t.Fatalf("got %q", got)
	}
	// The functional model zeroes non-broadcast TCU registers, so a wrong
	// or missing bcast set would change this output.
	if got, _ := runCycle(t, p, config.FPGA64()); got != "87" {
		t.Fatalf("cycle: got %q", got)
	}
}
