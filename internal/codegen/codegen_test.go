package codegen_test

import (
	"bytes"
	"strings"
	"testing"

	"xmtgo/internal/asm"
	"xmtgo/internal/codegen"
	"xmtgo/internal/config"
	"xmtgo/internal/sim/cycle"
	"xmtgo/internal/sim/funcmodel"
)

// compile builds a program from XMTC source with default options.
func compile(t testing.TB, src string, opts codegen.Options) (*codegen.Result, *asm.Program) {
	t.Helper()
	res, err := codegen.Compile("test.c", src, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	p, err := asm.Assemble(res.Unit)
	if err != nil {
		t.Fatalf("assemble: %v\n%s", err, asm.Print(res.Unit))
	}
	return res, p
}

// runFunc executes a program in fast functional mode and returns output.
func runFunc(t testing.TB, p *asm.Program) string {
	t.Helper()
	var out bytes.Buffer
	m, err := funcmodel.New(p, 4<<20, &out)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(50_000_000); err != nil {
		t.Fatalf("functional run: %v (output so far %q)", err, out.String())
	}
	return out.String()
}

// runCycle executes a program cycle-accurately on FPGA64 and returns the
// output and cycle count.
func runCycle(t testing.TB, p *asm.Program, cfg config.Config) (string, int64) {
	t.Helper()
	var out bytes.Buffer
	sys, err := cycle.New(p, cfg, &out)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(200_000_000)
	if err != nil {
		t.Fatalf("cycle run: %v (output so far %q)", err, out.String())
	}
	if !res.Halted {
		t.Fatalf("cycle run did not halt: %+v", res)
	}
	return out.String(), res.Cycles
}

// both runs in both modes and checks they agree.
func both(t testing.TB, src, want string) {
	t.Helper()
	_, p := compile(t, src, codegen.DefaultOptions())
	fOut := runFunc(t, p)
	if fOut != want {
		t.Fatalf("functional output %q, want %q", fOut, want)
	}
	cOut, _ := runCycle(t, p, config.FPGA64())
	if cOut != want {
		t.Fatalf("cycle output %q, want %q", cOut, want)
	}
}

func TestSerialArithmetic(t *testing.T) {
	both(t, `
int main() {
    int a = 6, b = 7;
    int c = a * b;
    print_int(c);
    print_char('\n');
    print_int(100 / 7);
    print_char(' ');
    print_int(100 % 7);
    print_char(' ');
    print_int(1 << 10);
    print_char(' ');
    print_int(-5 / 2);
    return 0;
}`, "42\n14 2 1024 -2")
}

func TestControlFlow(t *testing.T) {
	both(t, `
int main() {
    int i, sum = 0;
    for (i = 0; i < 10; i++) {
        if (i % 2 == 0) continue;
        sum += i;
    }
    print_int(sum);      // 1+3+5+7+9 = 25
    int n = 0;
    while (1) { n++; if (n >= 5) break; }
    print_int(n);
    do { n--; } while (n > 2);
    print_int(n);
    return 0;
}`, "2552")
}

func TestFunctionsAndRecursion(t *testing.T) {
	both(t, `
int fib(int n) {
    if (n < 2) return n;
    return fib(n-1) + fib(n-2);
}
int main() {
    print_int(fib(15));
    return 0;
}`, "610")
}

func TestGlobalsAndArrays(t *testing.T) {
	both(t, `
int A[10];
int total = 3;
int main() {
    int i;
    for (i = 0; i < 10; i++) A[i] = i * i;
    for (i = 0; i < 10; i++) total += A[i];
    print_int(total);   // 285 + 3
    return 0;
}`, "288")
}

func TestPointers(t *testing.T) {
	both(t, `
int g = 5;
void bump(int *p, int by) { *p = *p + by; }
int main() {
    int local = 10;
    bump(&g, 2);
    bump(&local, g);
    print_int(local);  // 10 + 7
    int arr[4] = {1, 2, 3, 4};
    int *q = arr;
    q++;
    print_int(*q + q[1]); // 2 + 3
    return 0;
}`, "175")
}

func TestFloats(t *testing.T) {
	both(t, `
float half(float x) { return x / 2.0; }
int main() {
    float a = 3.5;
    float b = half(a) + 0.25;
    print_int((int)(b * 4.0)); // (1.75+0.25)*4 = 8
    if (a > 3.0 && a <= 3.5) print_int(1); else print_int(0);
    return 0;
}`, "81")
}

func TestMalloc(t *testing.T) {
	both(t, `
int main() {
    int *p = (int*)malloc(10 * sizeof(int));
    int i;
    for (i = 0; i < 10; i++) p[i] = i;
    int *q = (int*)malloc(4);
    *q = 100;
    print_int(p[9] + *q);
    return 0;
}`, "109")
}

func TestStringsAndChars(t *testing.T) {
	both(t, `
char msg[6] = {'h','e','l','l','o'};
int main() {
    print_string("xmt: ");
    int i;
    for (i = 0; msg[i] != 0; i++) print_char(msg[i]);
    return 0;
}`, "xmt: hello")
}

// TestArrayCompaction is the paper's Fig. 2a example, end to end.
func TestArrayCompaction(t *testing.T) {
	src := `
int A[8] = {5, 0, 3, 0, 0, 9, 1, 0};
int B[8];
int base = 0;
int main() {
    spawn(0, 7) {
        int inc = 1;
        if (A[$] != 0) {
            ps(inc, base);
            B[inc] = A[$];
        }
    }
    print_int(base);
    int i, sum = 0;
    for (i = 0; i < base; i++) sum += B[i];
    print_char(' ');
    print_int(sum); // 5+3+9+1 = 18 in any order
    return 0;
}`
	both(t, src, "4 18")
}

func TestSpawnSum(t *testing.T) {
	both(t, `
int A[64];
int total = 0;
int main() {
    int i;
    for (i = 0; i < 64; i++) A[i] = i + 1;
    spawn(0, 63) {
        int v = A[$];
        psm(v, total);
    }
    print_int(total); // 64*65/2
    return 0;
}`, "2080")
}

func TestNestedSpawnSerializes(t *testing.T) {
	res, p := compile(t, `
int M[16];
int main() {
    spawn(0, 3) {
        int r = $;
        spawn(0, 3) {
            int c = $;
            M[r * 4 + c] = r * 10 + c;
        }
    }
    int i, sum = 0;
    for (i = 0; i < 16; i++) sum += M[i];
    print_int(sum);
    return 0;
}`, codegen.DefaultOptions())
	if len(res.Warnings) == 0 || !strings.Contains(res.Warnings[0].Msg, "serialized") {
		t.Fatalf("expected a serialization warning, got %v", res.Warnings)
	}
	want := "264" // sum over r,c of 10r+c = 10*6*4/... = 10*(0+1+2+3)*4 + (0+1+2+3)*4 = 240+24
	if got := runFunc(t, p); got != want {
		t.Fatalf("functional: got %q want %q", got, want)
	}
	if got, _ := runCycle(t, p, config.FPGA64()); got != want {
		t.Fatalf("cycle: got %q want %q", got, want)
	}
}

func TestOutliningHappened(t *testing.T) {
	opts := codegen.DefaultOptions()
	opts.DumpPrepass = true
	res, _ := compile(t, `
int A[8];
int found = 0;
int main() {
    int localFound = 0;
    spawn(0, 7) {
        if (A[$] != 0) localFound = 1;
    }
    print_int(localFound);
    return 0;
}`, opts)
	if res.Stats.OutlinedSpawns != 1 {
		t.Fatalf("outlined %d spawns, want 1", res.Stats.OutlinedSpawns)
	}
	if !strings.Contains(res.PrepassSource, "__outl_main_0") {
		t.Fatalf("prepass dump does not show the outlined function:\n%s", res.PrepassSource)
	}
	// localFound is written by parallel code: must be captured by
	// reference (Fig. 8c's &found).
	if !strings.Contains(res.PrepassSource, "__outl_main_0(&localFound)") &&
		!strings.Contains(res.PrepassSource, "__outl_main_0((&localFound))") {
		t.Fatalf("expected by-reference capture in:\n%s", res.PrepassSource)
	}
}

func TestVolatileGlobal(t *testing.T) {
	both(t, `
volatile int flag = 0;
int main() {
    flag = 3;
    int a = flag + flag; // two loads: volatile is never CSE'd
    print_int(a);
    return 0;
}`, "6")
}

func TestTernaryAndLogical(t *testing.T) {
	both(t, `
int main() {
    int x = 7;
    int y = x > 5 ? x * 2 : x - 1;
    print_int(y);
    int z = (x > 0) || (y / 0 > 0); // short circuit: no trap
    print_int(z);
    int w = (x < 0) && (y / 0 > 0);
    print_int(w);
    return 0;
}`, "1410")
}

func TestXmtCycleBuiltin(t *testing.T) {
	_, p := compile(t, `
int main() {
    int c0 = xmt_cycle();
    int i, s = 0;
    for (i = 0; i < 100; i++) s += i;
    int c1 = xmt_cycle();
    print_int(c1 > c0 ? 1 : 0);
    print_int(s == 4950 ? 1 : 0);
    return 0;
}`, codegen.DefaultOptions())
	if got := runFunc(t, p); got != "11" {
		t.Fatalf("functional: got %q", got)
	}
	if got, _ := runCycle(t, p, config.FPGA64()); got != "11" {
		t.Fatalf("cycle: got %q", got)
	}
}
