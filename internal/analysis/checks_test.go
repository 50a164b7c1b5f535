package analysis_test

import (
	"strings"
	"testing"

	"xmtgo/internal/analysis"
	"xmtgo/internal/diag"
)

// lintCase is one table entry: a source, the check under test, and the
// expected findings of that check (matched as substrings of the rendered
// diagnostics, in order).
type lintCase struct {
	name string
	src  string
	// check restricts Analyze to a single pass (empty = all).
	check string
	// want are substrings, one per expected diagnostic of that check.
	want []string
	// falsePositive documents findings that are known over-approximations
	// of the analysis: the program is (or may be) correct, but the
	// analyzer flags it anyway. Kept in the table deliberately so the
	// trade-off is visible and a future precision improvement shows up as
	// a test change.
	falsePositive bool
}

func runCase(t *testing.T, c lintCase) {
	t.Helper()
	var enabled map[string]bool
	if c.check != "" {
		enabled = map[string]bool{c.check: true}
	}
	ds := analysis.Analyze(c.name+".c", c.src, enabled)
	var got []string
	for _, d := range ds {
		if c.check == "" || d.Check == c.check {
			got = append(got, d.String())
		}
	}
	if len(got) != len(c.want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(got), len(c.want), strings.Join(got, "\n"))
	}
	for i, w := range c.want {
		if !strings.Contains(got[i], w) {
			t.Errorf("finding %d = %q, want substring %q", i, got[i], w)
		}
	}
}

func TestSpawnRace(t *testing.T) {
	cases := []lintCase{
		{
			name:  "guarded_write_read",
			check: "spawn-race",
			src: `
int x = 0;
int A[8];
int main() {
    spawn(0, 7) {
        if ($ == 0) x = 1;
        A[$] = x;
    }
    return 0;
}`,
			want: []string{`possible data race on "x"`},
		},
		{
			name:  "ps_orders_the_pair",
			check: "spawn-race",
			src: `
int x = 0;
int y = 0;
int A[8];
int main() {
    spawn(0, 7) {
        int inc = 1;
        if ($ == 0) x = 1;
        ps(inc, y);
        A[$] = x;
    }
    return 0;
}`,
			want: nil, // release (write side) / acquire (read side) via ps
		},
		{
			name:  "private_elements_never_conflict",
			check: "spawn-race",
			src: `
int A[8];
int main() {
    spawn(0, 7) {
        A[$] = A[$] + 1;
    }
    return 0;
}`,
			want: nil, // identical $-dependent index: per-thread element
		},
		{
			name:  "distinct_constant_elements",
			check: "spawn-race",
			src: `
int A[8];
int main() {
    spawn(0, 1) {
        if ($ == 0) A[0] = 1;
        if ($ == 1) A[1] = 2;
    }
    return 0;
}`,
			want: nil, // provably different elements
		},
		{
			name:  "varying_array_indices_conflict",
			check: "spawn-race",
			src: `
int A[8];
int B[8];
int main() {
    spawn(0, 7) {
        A[$] = 1;
        B[$] = A[7 - $];
    }
    return 0;
}`,
			want: []string{`possible data race on "A"`},
		},
		{
			// Formerly a documented false positive: both writes are guarded
			// by the same `$ == 0` condition, so only thread 0 ever executes
			// them and they are sequenced within that thread. The CFG builder
			// records the pinned thread id of `$ == k` guards, and two
			// accesses pinned to the same id are suppressed.
			name:  "same_guard_now_clean",
			check: "spawn-race",
			src: `
int x = 0;
int main() {
    spawn(0, 7) {
        if ($ == 0) x = 1;
        if ($ == 0) x = 2;
    }
    return 0;
}`,
			want: nil,
		},
		{
			name:  "different_pins_still_race",
			check: "spawn-race",
			src: `
int x = 0;
int main() {
    spawn(0, 7) {
        if ($ == 0) x = 1;
        if ($ == 1) x = 2;
    }
    return 0;
}`,
			want: []string{`possible data race on "x"`},
		},
		{
			name:  "single_thread_region_clean",
			check: "spawn-race",
			src: `
int x = 0;
int main() {
    spawn(0, 0) {
        x = $;
        x = x + 1;
    }
    return 0;
}`,
			want: nil, // spawn(0, 0): one virtual thread cannot race
		},
		{
			name:  "affine_disjoint_strides",
			check: "spawn-race",
			src: `
int A[16];
int main() {
    spawn(0, 7) {
        A[2 * $] = 1;
        A[2 * $ + 1] = A[2 * $];
    }
    return 0;
}`,
			want: nil, // 2$ vs 2$+1: different parity, never the same element
		},
		{
			name:  "affine_chased_through_local",
			check: "spawn-race",
			src: `
int A[16];
int main() {
    spawn(0, 7) {
        int i = $ + 8;
        A[i] = A[$];
    }
    return 0;
}`,
			want: nil, // i = $+8 > 7 >= any other thread's $ under spawn(0,7)
		},
		{
			name:  "affine_overlapping_strides_race",
			check: "spawn-race",
			src: `
int A[16];
int main() {
    spawn(0, 7) {
        A[$] = 1;
        A[$ + 1] = 2;
    }
    return 0;
}`,
			want: []string{`possible data race on "A"`}, // thread t and t+1 collide
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { runCase(t, c) })
	}
}

func TestSpawnDataflow(t *testing.T) {
	cases := []lintCase{
		{
			name:  "return_crosses_boundary",
			check: "spawn-dataflow",
			src: `
int A[8];
int main() {
    spawn(0, 7) {
        if (A[$] < 0) return 1;
    }
    return 0;
}`,
			want: []string{"return crosses the spawn boundary"},
		},
		{
			name:  "break_without_loop",
			check: "spawn-dataflow",
			src: `
int A[8];
int main() {
    int i;
    for (i = 0; i < 8; i++) {
        spawn(0, 7) {
            if (A[$] < 0) break;
        }
    }
    return 0;
}`,
			want: []string{"break crosses the spawn boundary"},
		},
		{
			name:  "break_inside_spawn_loop_ok",
			check: "spawn-dataflow",
			src: `
int A[8];
int main() {
    spawn(0, 7) {
        int j;
        for (j = 0; j < 8; j++) {
            if (A[j] < 0) break;
        }
        A[$] = 1;
    }
    return 0;
}`,
			want: nil,
		},
		{
			name:  "serial_accumulator_captured",
			check: "spawn-dataflow",
			src: `
int A[8];
int main() {
    int sum = 0;
    spawn(0, 7) {
        sum = sum + A[$];
    }
    print_int(sum);
    return 0;
}`,
			want: []string{`serial-scope local "sum" is assigned inside the spawn`},
		},
		{
			name:  "serial_ps_increment_rejected",
			check: "spawn-dataflow",
			src: `
int total = 0;
int main() {
    int inc = 1;
    spawn(0, 7) {
        ps(inc, total);
    }
    return 0;
}`,
			want: []string{`ps increment "inc" must be declared inside the spawn block`},
		},
		{
			// Formerly a documented false positive: with a single virtual
			// thread there is no second writer, so the shared capture cannot
			// race. The CFG's constant spawn bounds prove it.
			name:  "single_thread_capture_now_clean",
			check: "spawn-dataflow",
			src: `
int main() {
    int last = 0;
    spawn(0, 0) {
        last = $;
    }
    print_int(last);
    return 0;
}`,
			want: nil,
		},
		{
			name:  "single_thread_ps_increment_still_rejected",
			check: "spawn-dataflow",
			src: `
int total = 0;
int main() {
    int inc = 1;
    spawn(0, 0) {
        ps(inc, total);
    }
    return 0;
}`,
			// The register contract is broken regardless of thread count.
			want: []string{`ps increment "inc" must be declared inside the spawn block`},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { runCase(t, c) })
	}
}

func TestPsMisuse(t *testing.T) {
	cases := []lintCase{
		{
			name:  "constant_increment_two",
			check: "ps-misuse",
			src: `
int total = 0;
int main() {
    spawn(0, 7) {
        int inc = 2;
        ps(inc, total);
    }
    return 0;
}`,
			want: []string{`ps increment "inc" is 2 here`},
		},
		{
			name:  "increment_zero_and_one_ok",
			check: "ps-misuse",
			src: `
int total = 0;
int A[8];
int main() {
    spawn(0, 7) {
        int inc = 0;
        if (A[$] != 0) inc = 1;
        ps(inc, total);
    }
    return 0;
}`,
			want: nil,
		},
		{
			name:  "psm_to_thread_private",
			check: "ps-misuse",
			src: `
int main() {
    spawn(0, 7) {
        int mine = 0;
        int one = 1;
        psm(one, mine);
    }
    return 0;
}`,
			want: []string{`psm to thread-private "mine"`},
		},
		{
			name:  "psm_to_global_ok",
			check: "ps-misuse",
			src: `
int total = 0;
int main() {
    spawn(0, 7) {
        int v = 5;
        psm(v, total);
    }
    return 0;
}`,
			want: nil,
		},
		{
			// FALSE POSITIVE (documented): the increment is 1 unless the
			// branch runs, and the branch may never run at runtime. The
			// constant tracker is traversal-order (no path merging), so
			// the branch assignment wins and the ps is flagged even on
			// executions that skip it. Statically the program still
			// violates the contract on the taken path, which is why the
			// shape stays a warning rather than being dropped.
			name:          "branch_overwrite_false_positive",
			check:         "ps-misuse",
			falsePositive: true,
			src: `
int total = 0;
int A[8];
int main() {
    spawn(0, 7) {
        int inc = 1;
        if (A[$] != 0) inc = 3;
        ps(inc, total);
    }
    return 0;
}`,
			want: []string{`ps increment "inc" is 3 here`},
		},
		{
			// The initializer folds; the inner block's inc is another
			// symbol whose value is unknown.
			name:  "increment_from_declaration_initializer",
			check: "ps-misuse",
			src:   srcPsDeclInit,
			want:  []string{`:6:9: warning: ps increment "inc" is 3 here`},
		},
		{
			name:  "compound_assignment_makes_increment_unknown",
			check: "ps-misuse",
			src:   srcPsCompound,
			want:  nil,
		},
		{
			// Statically dead code is still checked, in traversal order.
			name:  "ps_in_dead_code_after_return",
			check: "ps-misuse",
			src:   srcPsDeadCode,
			want:  []string{`:5:5: warning: ps increment "inc" is 2 here`},
		},
		{
			// A nested spawn folds into the outer region: its declarations
			// are private to the outer spawn's threads too.
			name:  "psm_to_private_of_nested_spawn",
			check: "ps-misuse",
			src:   srcPsmNestedPrivate,
			want:  []string{`:6:13: warning: psm to thread-private "mine"`},
		},
		{
			// The index of an address-of is evaluated: each ps sees the
			// increment the &A[...] before it assigned.
			name:  "increment_assigned_under_address_of",
			check: "ps-misuse",
			src:   srcPsAddrOf,
			want:  []string{`:10:9: warning: ps increment "inc" is 3 here`},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { runCase(t, c) })
	}
}

// Sources pinning the ps-misuse and spin-wait readouts of the dataflow
// CFG; FuzzAnalyze seeds its corpus with them too.
const (
	srcPsDeclInit = `int total = 0;
int A[8];
int main() {
    spawn(0, 7) {
        int inc = (1 << 2) - 1;
        ps(inc, total);
        {
            int inc = A[$];
            ps(inc, total);
        }
    }
    return 0;
}`
	srcPsCompound = `int total = 0;
int main() {
    spawn(0, 7) {
        int inc = 1;
        inc += 1;
        ps(inc, total);
    }
    return 0;
}`
	srcPsDeadCode = `int total = 0;
int main() {
    int inc = 2;
    return 0;
    ps(inc, total);
}`
	srcPsmNestedPrivate = `int main() {
    spawn(0, 7) {
        spawn(0, 3) {
            int mine = 0;
            int one = 1;
            psm(one, mine);
        }
    }
    return 0;
}`
	srcPsAddrOf = `int total = 0;
int A[8];
int main() {
    spawn(0, 7) {
        int inc = 2;
        int *p;
        p = &A[inc = 1];
        ps(inc, total);
        p = &A[inc = 3];
        ps(inc, total);
        print_int(*p);
    }
    return 0;
}`
	srcAddrOfIndex = `int A[8];
int main() {
    int i = 0;
    int *p;
    i = 3;
    p = &A[i];
    print_int(*p);
    return 0;
}`
	srcExprBase = `int A[8];
int main() {
    int *p;
    p = A;
    print_int((p + 1)[0]);
    return 0;
}`
	srcArrowBase = `struct S { int x; };
struct S s;
int main() {
    struct S *p;
    p = &s;
    print_int(p->x);
    return 0;
}`
	srcDoSpin = `int flag = 0;
int main() {
    spawn(0, 7) {
        if ($ == 0) flag = 1;
        do { } while (flag == 0);
    }
    return 0;
}`
	srcForPostSpin = `int flag = 0;
int main() {
    spawn(0, 7) {
        for (; flag == 0; flag++) { }
    }
    return 0;
}`
)

// readoutSeeds are the sources above, for FuzzAnalyze.
var readoutSeeds = []string{srcPsDeclInit, srcPsCompound, srcPsDeadCode,
	srcPsmNestedPrivate, srcDoSpin, srcForPostSpin,
	srcPsAddrOf, srcAddrOfIndex, srcExprBase, srcArrowBase}

func TestVolatileChecks(t *testing.T) {
	cases := []lintCase{
		{
			name:  "reread_of_written_global",
			check: "volatile",
			src: `
int flag = 0;
int A[8];
int main() {
    spawn(0, 7) {
        if ($ == 0) flag = 1;
        int a = flag;
        int b = flag;
        A[$] = a + b;
    }
    return 0;
}`,
			want: []string{`"flag" is re-read with no intervening write or prefix-sum`},
		},
		{
			name:  "reread_of_uniform_global_ok",
			check: "volatile",
			src: `
int n = 8;
int A[8];
int main() {
    spawn(0, 7) {
        int a = n;
        int b = n;
        A[$] = a + b;
    }
    return 0;
}`,
			want: nil, // nothing writes n inside the spawn: the fold is harmless
		},
		{
			name:  "prefix_sum_refreshes",
			check: "volatile",
			src: `
int flag = 0;
int y = 0;
int A[8];
int main() {
    spawn(0, 7) {
        if ($ == 0) flag = 1;
        int a = flag;
        int inc = 0;
        ps(inc, y);
        int b = flag;
        A[$] = a + b;
    }
    return 0;
}`,
			want: nil,
		},
		{
			name:  "spin_wait",
			check: "volatile",
			src: `
int flag = 0;
int main() {
    spawn(0, 7) {
        if ($ == 0) flag = 1;
        while (flag == 0) { }
    }
    return 0;
}`,
			want: []string{`spin-wait on non-volatile global "flag"`},
		},
		{
			name:  "volatile_spin_ok",
			check: "volatile",
			src: `
volatile int flag = 0;
int main() {
    spawn(0, 7) {
        if ($ == 0) flag = 1;
        while (flag == 0) { }
    }
    return 0;
}`,
			want: nil,
		},
		{
			// FALSE POSITIVE (documented): the programmer may well want
			// one consistent snapshot and not care that both reads fold
			// into one load — the transformation is semantics-preserving
			// for this thread. The check cannot distinguish "wants a
			// fresh value" from "copied a value twice", so it flags the
			// re-read whenever another thread writes the global.
			name:          "snapshot_false_positive",
			check:         "volatile",
			falsePositive: true,
			src: `
int cnt = 0;
int A[8];
int B[8];
int main() {
    spawn(0, 7) {
        if ($ == 0) cnt = 7;
        A[$] = cnt;
        B[$] = cnt;
    }
    return 0;
}`,
			want: []string{`"cnt" is re-read`},
		},
		{
			name:  "do_while_spin",
			check: "volatile",
			src:   srcDoSpin,
			want:  []string{`:5:9: warning: spin-wait on non-volatile global "flag"`},
		},
		{
			// The post clause is not part of the loop body, so the body
			// "never writes" the flag; join-safety reads the same loop
			// and sees the post clause's plain store in the region.
			name: "for_spin_written_by_post_clause",
			src:  srcForPostSpin,
			want: []string{
				`:4:9: warning: spin-wait on "flag" stands in for the spawn's join barrier: the relaxed XMT memory model never obliges the write at for_spin_written_by_post_clause.c:4:27 to become visible here`,
				`:4:9: warning: spin-wait on non-volatile global "flag": the loop body never writes it`,
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { runCase(t, c) })
	}
}

func TestUninitRead(t *testing.T) {
	cases := []lintCase{
		{
			name:  "read_before_any_assignment",
			check: "uninit-read",
			src: `
int main() {
    int x;
    int y = x + 1;
    print_int(y);
    return 0;
}`,
			want: []string{`"x" is read here but no path from the function entry has assigned it`},
		},
		{
			name:  "assigned_on_all_paths_ok",
			check: "uninit-read",
			src: `
int n = 3;
int main() {
    int x;
    if (n > 0) { x = 1; } else { x = 2; }
    print_int(x);
    return 0;
}`,
			want: nil,
		},
		{
			// Deliberately quiet: one path assigns, so the read is only
			// *maybe* uninitialized. The check demands that every reaching
			// definition is the bare declaration before it speaks up.
			name:  "assigned_on_some_paths_stays_quiet",
			check: "uninit-read",
			src: `
int n = 3;
int main() {
    int x;
    if (n > 0) { x = 1; }
    print_int(x);
    return 0;
}`,
			want: nil,
		},
		{
			name:  "garbage_psm_increment",
			check: "uninit-read",
			src: `
int total = 0;
int main() {
    spawn(0, 7) {
        int t;
        psm(t, total);
    }
    return 0;
}`,
			// psm reads its increment before overwriting it with the old base.
			want: []string{`"t" is read here but no path from the function entry has assigned it`},
		},
		{
			name:  "unreachable_read_ignored",
			check: "uninit-read",
			src: `
int main() {
    int x;
    return 0;
    print_int(x);
    return 1;
}`,
			want: nil,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { runCase(t, c) })
	}
}

func TestDeadStore(t *testing.T) {
	cases := []lintCase{
		{
			name:  "overwritten_before_read",
			check: "dead-store",
			src: `
int main() {
    int x;
    x = 1;
    x = 2;
    print_int(x);
    return 0;
}`,
			want: []string{`value stored to "x" is never read`},
		},
		{
			name:  "final_store_never_read",
			check: "dead-store",
			src: `
int n = 3;
int main() {
    int x = 0;
    x = n + 1;
    return 0;
}`,
			want: []string{`value stored to "x" is never read`},
		},
		{
			name:  "loop_carried_store_is_live",
			check: "dead-store",
			src: `
int main() {
    int i;
    int s = 0;
    for (i = 0; i < 8; i = i + 1) {
        s = s + i;
    }
    print_int(s);
    return 0;
}`,
			want: nil, // i = i + 1 and s = s + i are read by the next iteration
		},
		{
			name:  "spawn_carried_store_is_live",
			check: "dead-store",
			src: `
int A[8];
int main() {
    spawn(0, 7) {
        int mine = A[$];
        A[$] = mine + 1;
    }
    return 0;
}`,
			want: nil,
		},
		{
			name:  "self_assignment_idiom_ok",
			check: "dead-store",
			src: `
int main() {
    int unused = 0;
    unused = unused;
    return 0;
}`,
			want: nil, // the C idiom for an intentionally unused variable
		},
		{
			name:  "branch_read_keeps_store_alive",
			check: "dead-store",
			src: `
int n = 3;
int main() {
    int x = 0;
    x = 7;
    if (n > 0) { print_int(x); }
    return 0;
}`,
			want: nil,
		},
		{
			name:  "index_read_under_address_of",
			check: "dead-store",
			src:   srcAddrOfIndex,
			want:  nil, // &A[i] reads i
		},
		{
			name:  "expression_base_is_read",
			check: "dead-store",
			src:   srcExprBase,
			want:  nil, // (p + 1)[0] reads p
		},
		{
			name:  "arrow_base_is_read",
			check: "dead-store",
			src:   srcArrowBase,
			want:  nil, // p->x reads p
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { runCase(t, c) })
	}
}

func TestJoinSafety(t *testing.T) {
	cases := []lintCase{
		{
			name:  "infinite_loop_never_joins",
			check: "join-safety",
			src: `
int A[8];
int main() {
    spawn(0, 7) {
        while (1) { A[$] = A[$] + 1; }
    }
    return 0;
}`,
			want: []string{"can never arrive at the spawn's join barrier"},
		},
		{
			name:  "breakable_loop_joins",
			check: "join-safety",
			src: `
int A[8];
int main() {
    spawn(0, 7) {
        while (1) {
            if (A[$] > 0) { break; }
            A[$] = A[$] + 1;
        }
    }
    return 0;
}`,
			want: nil,
		},
		{
			name:  "spin_wait_as_barrier",
			check: "join-safety",
			src: `
int flag = 0;
int A[8];
int main() {
    spawn(0, 7) {
        if ($ == 0) { flag = 1; }
        while (flag == 0) { }
        A[$] = 1;
    }
    return 0;
}`,
			want: []string{`spin-wait on "flag" stands in for the spawn's join barrier`},
		},
		{
			name:  "psm_updated_flag_ok",
			check: "join-safety",
			src: `
int done = 0;
int A[8];
int main() {
    spawn(0, 7) {
        int one = 1;
        A[$] = $;
        psm(one, done);
        while (done < 8) { }
    }
    return 0;
}`,
			want: nil, // the prefix-sum orders the flag updates
		},
		{
			name:  "serial_infinite_loop_out_of_scope",
			check: "join-safety",
			src: `
int main() {
    while (1) { }
    return 0;
}`,
			want: nil, // only spawn regions owe the join barrier
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { runCase(t, c) })
	}
}

func TestSuppressionComments(t *testing.T) {
	src := `
int main() {
    int sum = 0;
    spawn(0, 7) {
        sum = sum + $; // xmtlint:ignore spawn-dataflow
    }
    print_int(sum);
    return 0;
}`
	if ds := analysis.Analyze("s.c", src, nil); len(ds) != 0 {
		t.Errorf("same-line suppression failed: %v", ds)
	}
	above := strings.Replace(src,
		"        sum = sum + $; // xmtlint:ignore spawn-dataflow",
		"        // xmtlint:ignore\n        sum = sum + $;", 1)
	if ds := analysis.Analyze("s.c", above, nil); len(ds) != 0 {
		t.Errorf("bare line-above suppression failed: %v", ds)
	}
	wrong := strings.Replace(src, "ignore spawn-dataflow", "ignore volatile", 1)
	if ds := analysis.Analyze("s.c", wrong, nil); len(ds) != 1 {
		t.Errorf("suppression of a different check must not apply: %v", ds)
	}
}

func TestFrontEndFailuresBecomeDiagnostics(t *testing.T) {
	// Parse error: one position-carrying "parse" diagnostic.
	ds := analysis.Analyze("p.c", "int main( {", nil)
	if len(ds) != 1 || ds[0].Check != "parse" || ds[0].Severity != diag.Error || !ds[0].Pos.IsValid() {
		t.Errorf("parse failure diagnostics = %v", ds)
	}
	// Sema error: a "sema" diagnostic plus the syntactic passes.
	src := `
int main() {
    undeclared = 1;
    spawn(0, 7) {
        return 1;
    }
    return 0;
}`
	ds = analysis.Analyze("s.c", src, nil)
	var checks []string
	for _, d := range ds {
		checks = append(checks, d.Check)
	}
	joined := strings.Join(checks, ",")
	if !strings.Contains(joined, "sema") || !strings.Contains(joined, "spawn-dataflow") {
		t.Errorf("sema failure should keep syntactic passes running, got checks %v", checks)
	}
}

func TestRunChecksFilter(t *testing.T) {
	// misuse-style source that trips several checks; the filter must
	// restrict output to the requested pass.
	src := `
int total = 0;
int main() {
    int sum = 0;
    spawn(0, 7) {
        sum = sum + $;
        int inc = 2;
        ps(inc, total);
    }
    return 0;
}`
	ds := analysis.Analyze("f.c", src, map[string]bool{"ps-misuse": true})
	if len(ds) != 1 || ds[0].Check != "ps-misuse" {
		t.Errorf("-checks filter leaked other passes: %v", ds)
	}
}
