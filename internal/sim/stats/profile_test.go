package stats

import (
	"strings"
	"testing"

	"xmtgo/internal/asm"
)

// profProgram builds a tiny two-function program with a line table, the
// shape the profiler folds on: main at PC 0-1 (lines 1-2), f at PC 2-3
// (lines 3-4).
func profProgram(t *testing.T) *asm.Program {
	t.Helper()
	u, err := asm.Parse("p.s", `
	.text
main:	addiu $t0, $zero, 1
	sys 0
f:	addu $t1, $t0, $t0
	jr $ra
`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(u)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestLineProfileShardsMergeCommutatively(t *testing.T) {
	prog := profProgram(t)
	p := NewLineProfile(prog, 3)
	// The same attribution split across shards in different orders must
	// produce one merged total — this is the worker-independence argument.
	p.Shard(0).Issue(0)
	p.Shard(2).Issue(0)
	p.Shard(1).Stall(0, 5)
	p.Shard(0).Issue(2)
	p.Shard(1).Issue(2)
	p.Shard(2).Stall(2, 7)

	costs := p.merge()
	if costs[0].issue != 2 || costs[0].stall != 5 || costs[0].instrs != 2 {
		t.Errorf("pc0 merged = %+v, want issue=2 stall=5 instrs=2", costs[0])
	}
	if costs[2].issue != 2 || costs[2].stall != 7 {
		t.Errorf("pc2 merged = %+v, want issue=2 stall=7", costs[2])
	}
}

func TestLineProfileReport(t *testing.T) {
	prog := profProgram(t)
	p := NewLineProfile(prog, 1)
	p.SetSource("line one\nline two\nline three\nline four")
	p.Shard(0).Issue(0)
	p.Shard(0).Stall(0, 9)
	p.Shard(0).Issue(2)

	var b strings.Builder
	p.Report(&b, 0)
	out := b.String()
	for _, want := range []string{
		"== cycle profile: flat (by source line) ==",
		"== cycle profile: cumulative (by function) ==",
		"main", "f",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// PC 0 (10 cycles) must rank above PC 2 (1 cycle) in both views.
	if strings.Index(out, "main") > strings.Index(out, "\nf") && strings.Contains(out, "\nf") {
		t.Errorf("cumulative view not sorted by cycles:\n%s", out)
	}
}

func TestLineProfileReportTopN(t *testing.T) {
	prog := profProgram(t)
	p := NewLineProfile(prog, 1)
	for pc := 0; pc < len(prog.Text); pc++ {
		p.Shard(0).Issue(pc)
	}
	var full, top strings.Builder
	p.Report(&full, 0)
	p.Report(&top, 1)
	if len(top.String()) >= len(full.String()) {
		t.Errorf("topN=1 report (%d bytes) not shorter than full report (%d bytes)",
			len(top.String()), len(full.String()))
	}
}

func TestLineProfileEmptyReport(t *testing.T) {
	p := NewLineProfile(profProgram(t), 1)
	var b strings.Builder
	p.Report(&b, 10)
	if !strings.Contains(b.String(), "no cycles attributed") {
		t.Errorf("empty profile report = %q", b.String())
	}
}

func TestFuncOfBeforeFirstLabel(t *testing.T) {
	if got := funcOf(nil, nil, 5); got != "<entry>" {
		t.Errorf("funcOf with no labels = %q, want <entry>", got)
	}
	idx, names := []int{4}, []string{"f"}
	if got := funcOf(idx, names, 2); got != "<entry>" {
		t.Errorf("funcOf before first label = %q, want <entry>", got)
	}
	if got := funcOf(idx, names, 4); got != "f" {
		t.Errorf("funcOf at label = %q, want f", got)
	}
}

func TestNewLineProfileMinimumOneShard(t *testing.T) {
	p := NewLineProfile(profProgram(t), 0)
	if len(p.shards) != 1 {
		t.Fatalf("shards = %d, want 1", len(p.shards))
	}
}

func TestHistogramPercentile(t *testing.T) {
	var h Histogram
	if h.Percentile(50) != 0 {
		t.Error("empty histogram percentile must be 0")
	}
	for _, v := range []uint64{0, 1, 2, 3, 100} {
		h.Observe(v)
	}
	if got := h.Percentile(1); got != 0 {
		t.Errorf("p1 = %d, want 0 (zero bucket)", got)
	}
	if got := h.Percentile(50); got != 1 {
		t.Errorf("p50 = %d, want 1 (upper edge of [1..1])", got)
	}
	if got := h.Percentile(60); got != 3 {
		t.Errorf("p60 = %d, want 3 (upper edge of [2..3])", got)
	}
	if got := h.Percentile(100); got != 127 {
		t.Errorf("p100 = %d, want 127 (upper edge of [64..127])", got)
	}
	if got, want := h.Mean(), float64(106)/5; got != want {
		t.Errorf("mean = %v, want %v", got, want)
	}

	var b strings.Builder
	hs := SnapshotHist(&h)
	hs.Report(&b, "lat")
	if !strings.Contains(b.String(), "count=5") {
		t.Errorf("report = %q", b.String())
	}
}
