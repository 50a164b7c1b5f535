package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// counters is an xmt-counters/v1 snapshot of a small fixture run.
const counters = `{
  "schema": "xmt-counters/v1", "cycle": 556, "ticks": 4448,
  "instructions": {"total": 1038, "master": 414, "tcu": 624},
  "stalls": {"mem": 184, "fpu_mdu": 0, "ps": 480, "icn_send": 0, "master_mem": 48, "master_send": 0},
  "memory": {"cache_hits": 49, "cache_misses": 5, "queue_full": 0, "dram_total": 3,
    "icn_traversals": 54, "load_latency": {"p50": 120, "p99": 255}},
  "prefix_sum": {"latency": {"p99": 63}}
}`

// regressed is counters with 50% more cycles and a 40% higher load p99.
var regressed = strings.NewReplacer(`"cycle": 556`, `"cycle": 834`, `"p99": 255`, `"p99": 357`).Replace(counters)

func write(t *testing.T, name, data string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func load(t *testing.T, name, data string) *artifact {
	t.Helper()
	art, err := loadArtifact(write(t, name, data))
	if err != nil {
		t.Fatal(err)
	}
	return art
}

func verdictOf(t *testing.T, rows []row, name string) verdict {
	t.Helper()
	for _, r := range rows {
		if r.Name == name {
			return r.Verdict
		}
	}
	t.Fatalf("no row %q in %+v", name, rows)
	return ""
}

func TestCompareThresholds(t *testing.T) {
	oldArt, newArt := load(t, "old.json", counters), load(t, "new.json", regressed)
	rows := compare(oldArt, newArt, 10, nil)
	if v := verdictOf(t, rows, "cycles"); v != verdictRegressed {
		t.Errorf("cycles +50%% = %s, want REGRESSED", v)
	}
	if v := verdictOf(t, rows, "load_latency_p99"); v != verdictRegressed {
		t.Errorf("load_latency_p99 +40%% = %s, want REGRESSED", v)
	}
	if v := verdictOf(t, rows, "icn_traversals"); v != verdictOK {
		t.Errorf("unchanged icn_traversals = %s, want ok", v)
	}

	// Identical inputs never regress.
	for _, r := range compare(oldArt, oldArt, 10, nil) {
		if r.Verdict != verdictOK {
			t.Errorf("identical inputs: %s = %s", r.Name, r.Verdict)
		}
	}

	// A generous per-metric threshold waives the regression of that metric
	// only.
	rows = compare(oldArt, newArt, 10, map[string]float64{"cycles": 60})
	if v := verdictOf(t, rows, "cycles"); v != verdictOK {
		t.Errorf("cycles with 60%% threshold = %s, want ok", v)
	}
	if v := verdictOf(t, rows, "load_latency_p99"); v != verdictRegressed {
		t.Errorf("load_latency_p99 under the default threshold = %s, want REGRESSED", v)
	}
}

// A -t that names no metric waives nothing, so it is a usage error that
// lists the valid names rather than a silent no-op.
func TestUnknownThresholdName(t *testing.T) {
	oldFile, newFile := write(t, "old.json", counters), write(t, "new.json", regressed)
	cases := []struct {
		args []string
		exit int
	}{
		{[]string{oldFile, newFile}, 1},
		{[]string{"-t", "cycles=60", "-t", "load_latency_p99=60", oldFile, newFile}, 0},
		{[]string{"-t", "cycle=5", oldFile, newFile}, 2},
		{[]string{"-t", "cycles=60", "-t", "ns/op=60", oldFile, oldFile}, 2},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		if got := run(c.args, &stdout, &stderr); got != c.exit {
			t.Errorf("xmtperf %v: exit %d, want %d\n%s", c.args, got, c.exit, stderr.String())
		}
		if c.exit == 2 {
			if !strings.Contains(stderr.String(), "names no metric") || !strings.Contains(stderr.String(), "cycles, dram_accesses") {
				t.Errorf("xmtperf %v: stderr does not name the bad -t and the valid names:\n%s", c.args, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("xmtperf %v: printed a table on a usage error:\n%s", c.args, stdout.String())
			}
		}
	}
}

func TestCompareDirections(t *testing.T) {
	art := load(t, "counters.json", counters)
	for name, m := range art.Metrics {
		want := lowerBetter
		if name == "instrs" {
			want = infoOnly
		}
		if m.Dir != want {
			t.Errorf("direction(%s) = %v, want %v", name, m.Dir, want)
		}
	}
}

func TestCompareImprovedAndNewGone(t *testing.T) {
	oldArt := &artifact{Label: "o", Metrics: map[string]metric{
		"cycles": {1000, lowerBetter},
		"gone":   {5, lowerBetter},
	}}
	newArt := &artifact{Label: "n", Metrics: map[string]metric{
		"cycles": {700, lowerBetter},
		"fresh":  {9, lowerBetter},
	}}
	rows := compare(oldArt, newArt, 10, nil)
	if v := verdictOf(t, rows, "cycles"); v != verdictImproved {
		t.Errorf("cycles -30%% = %s, want improved", v)
	}
	if v := verdictOf(t, rows, "gone"); v != verdictGone {
		t.Errorf("gone = %s", v)
	}
	if v := verdictOf(t, rows, "fresh"); v != verdictNew {
		t.Errorf("fresh = %s", v)
	}
}

func TestCountersArtifact(t *testing.T) {
	art := load(t, "counters.json", counters)
	if got := art.Metrics["cycles"].Value; got != 556 {
		t.Errorf("cycles = %v", got)
	}
	if got := art.Metrics["stall_cycles"].Value; got != 712 {
		t.Errorf("stall_cycles = %v", got)
	}
	want := 5.0 / 54.0
	if got := art.Metrics["cache_miss_rate"].Value; math.Abs(got-want) > 1e-12 {
		t.Errorf("cache_miss_rate = %v, want %v", got, want)
	}

	// A 30% cycle slowdown trips the gate.
	slowArt := load(t, "slow.json", strings.Replace(counters, `"cycle": 556`, `"cycle": 723`, 1))
	if v := verdictOf(t, compare(art, slowArt, 10, nil), "cycles"); v != verdictRegressed {
		t.Errorf("cycles +30%% = %s, want REGRESSED", v)
	}

	// Anything but a counter snapshot is refused.
	if _, err := loadArtifact(write(t, "samples.json", `{"schema": "xmt-samples/v1", "cycle": 556}`)); err == nil {
		t.Error("a file without the xmt-counters schema was accepted")
	}
}

func TestRenderMarkdown(t *testing.T) {
	rows := []row{
		{Name: "cycles", Old: 100, New: 150, DeltaPct: 50, ThresholdPct: 10, Verdict: verdictRegressed},
		{Name: "b", Old: 1, New: 1, DeltaPct: math.NaN(), ThresholdPct: 10, Verdict: verdictOK},
	}
	md := renderMarkdown("old", "new", rows)
	for _, want := range []string{"| metric |", "| cycles | 100 | 150 | +50.0% | 10% | REGRESSED |", "| — |"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}
