package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const benchOld = `{
  "schema": "xmt-bench/v1", "date": "d1", "go": "go1.24.0", "cpus": 1,
  "results": [
    {"name": "BenchmarkA", "iterations": 5,
     "metrics": {"ns/op": 100, "sim_cycle/sec": 1000, "allocs/op": 50}}
  ]
}`

const benchRegressed = `{
  "schema": "xmt-bench/v1", "date": "d2", "go": "go1.24.0", "cpus": 1,
  "results": [
    {"name": "BenchmarkA", "iterations": 5,
     "metrics": {"ns/op": 150, "sim_cycle/sec": 600, "allocs/op": 50}}
  ]
}`

func write(t *testing.T, name, data string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
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

func TestCompareBench(t *testing.T) {
	oldArt, err := loadArtifact(write(t, "old.json", benchOld))
	if err != nil {
		t.Fatal(err)
	}
	newArt, err := loadArtifact(write(t, "new.json", benchRegressed))
	if err != nil {
		t.Fatal(err)
	}
	rows := compare(oldArt, newArt, 10, nil)
	if v := verdictOf(t, rows, "A:ns/op"); v != verdictRegressed {
		t.Errorf("ns/op +50%% = %s, want REGRESSED", v)
	}
	if v := verdictOf(t, rows, "A:sim_cycle/sec"); v != verdictRegressed {
		t.Errorf("sim_cycle/sec -40%% = %s, want REGRESSED (higher is better)", v)
	}
	if v := verdictOf(t, rows, "A:allocs/op"); v != verdictOK {
		t.Errorf("unchanged allocs/op = %s, want ok", v)
	}

	// Identical inputs never regress.
	rows = compare(oldArt, oldArt, 10, nil)
	for _, r := range rows {
		if r.Verdict != verdictOK {
			t.Errorf("identical inputs: %s = %s", r.Name, r.Verdict)
		}
	}

	// A generous per-metric threshold waives the regression.
	rows = compare(oldArt, newArt, 10, map[string]float64{"ns/op": 60, "sim_cycle/sec": 60})
	if v := verdictOf(t, rows, "A:ns/op"); v != verdictOK {
		t.Errorf("ns/op with 60%% threshold = %s, want ok", v)
	}
}

func TestCompareDirections(t *testing.T) {
	cases := []struct {
		metric string
		want   direction
	}{
		{"ns/op", lowerBetter}, {"B/op", lowerBetter}, {"allocs/op", lowerBetter},
		{"host_ns/sim_instr", lowerBetter}, // BenchmarkTCUIssue's cluster-compute anchor
		{"host_ns/event", lowerBetter},     // BenchmarkSchedulerEdge's event-list anchor
		{"sim_cycle/sec", higherBetter}, {"sim_instr/sec", higherBetter},
		{"iterations", infoOnly},
	}
	for _, c := range cases {
		if got := metricDirection(c.metric); got != c.want {
			t.Errorf("direction(%s) = %v, want %v", c.metric, got, c.want)
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
	counters := `{
	  "schema": "xmt-counters/v1", "cycle": 556, "ticks": 4448,
	  "instructions": {"total": 1038, "master": 414, "tcu": 624},
	  "stalls": {"mem": 184, "fpu_mdu": 0, "ps": 480, "icn_send": 0, "master_mem": 48, "master_send": 0},
	  "memory": {"cache_hits": 49, "cache_misses": 5, "queue_full": 0, "dram_total": 3,
	    "icn_traversals": 54, "load_latency": {"p50": 120, "p99": 255}},
	  "prefix_sum": {"latency": {"p99": 63}}
	}`
	art, err := loadArtifact(write(t, "counters.json", counters))
	if err != nil {
		t.Fatal(err)
	}
	if got := art.Metrics["cycles"].Value; got != 556 {
		t.Errorf("cycles = %v", got)
	}
	if got := art.Metrics["stall_cycles"].Value; got != 712 {
		t.Errorf("stall_cycles = %v", got)
	}
	if d := art.Metrics["instrs"].Dir; d != infoOnly {
		t.Errorf("instrs direction = %v, want infoOnly", d)
	}
	want := 5.0 / 54.0
	if got := art.Metrics["cache_miss_rate"].Value; math.Abs(got-want) > 1e-12 {
		t.Errorf("cache_miss_rate = %v, want %v", got, want)
	}

	// A 30% cycle slowdown trips the gate.
	slow := strings.Replace(counters, `"cycle": 556`, `"cycle": 723`, 1)
	slowArt, err := loadArtifact(write(t, "slow.json", slow))
	if err != nil {
		t.Fatal(err)
	}
	rows := compare(art, slowArt, 10, nil)
	if v := verdictOf(t, rows, "cycles"); v != verdictRegressed {
		t.Errorf("cycles +30%% = %s, want REGRESSED", v)
	}
}

func TestHistoryPair(t *testing.T) {
	hist := write(t, "hist.jsonl",
		strings.ReplaceAll(benchOld, "\n", " ")+"\n"+strings.ReplaceAll(benchRegressed, "\n", " ")+"\n")
	oldArt, newArt, err := loadHistoryPair(hist)
	if err != nil {
		t.Fatal(err)
	}
	if oldArt.Label != "d1" || newArt.Label != "d2" {
		t.Fatalf("labels %q -> %q", oldArt.Label, newArt.Label)
	}
	rows := compare(oldArt, newArt, 10, nil)
	if v := verdictOf(t, rows, "A:ns/op"); v != verdictRegressed {
		t.Errorf("history pair ns/op = %s, want REGRESSED", v)
	}

	// loadArtifact on a .jsonl picks the last entry.
	art, err := loadArtifact(hist)
	if err != nil {
		t.Fatal(err)
	}
	if art.Metrics["A:ns/op"].Value != 150 {
		t.Errorf("last entry ns/op = %v", art.Metrics["A:ns/op"].Value)
	}

	if _, _, err := loadHistoryPair(write(t, "one.jsonl", strings.ReplaceAll(benchOld, "\n", " ")+"\n")); err == nil {
		t.Error("single-entry history should fail")
	}
}

func TestRenderMarkdown(t *testing.T) {
	rows := []row{
		{Name: "a:ns/op", Old: 100, New: 150, DeltaPct: 50, ThresholdPct: 10, Verdict: verdictRegressed},
		{Name: "b", Old: 1, New: 1, DeltaPct: math.NaN(), ThresholdPct: 10, Verdict: verdictOK},
	}
	md := renderMarkdown("old", "new", rows)
	for _, want := range []string{"| metric |", "| a:ns/op | 100 | 150 | +50.0% | 10% | REGRESSED |", "| — |"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}
