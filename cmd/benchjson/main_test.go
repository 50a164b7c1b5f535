package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	r, ok := parseBenchLine("BenchmarkTableI_ParallelMemory-8   6   196666173 ns/op   48992 sim_cycle/sec   79162944 B/op   188908 allocs/op")
	if !ok {
		t.Fatal("line not parsed")
	}
	if r.Name != "BenchmarkTableI_ParallelMemory-8" || r.Iterations != 6 {
		t.Fatalf("parsed %+v", r)
	}
	if r.Metrics["ns/op"] != 196666173 || r.Metrics["sim_cycle/sec"] != 48992 {
		t.Fatalf("metrics %+v", r.Metrics)
	}

	for _, bad := range []string{
		"PASS",
		"cpu: Intel(R) Xeon(R)",
		"BenchmarkShort",
		"BenchmarkX notanint 5 ns/op",
		"BenchmarkX 5 notafloat ns/op",
	} {
		if _, ok := parseBenchLine(bad); ok {
			t.Errorf("parsed %q, want rejection", bad)
		}
	}
}

func TestSummarize(t *testing.T) {
	f := &benchFile{Date: "2026-08-06", Go: "go1.24.0", CPUs: 1, Results: []benchResult{
		{Name: "BenchmarkTableI_ParallelMemory-8", Iterations: 6,
			Metrics: map[string]float64{"sim_cycle/sec": 48992}},
		{Name: "BenchmarkHostParallelScaling/Parallel,_memory_intensive/workers-auto-8", Iterations: 5,
			Metrics: map[string]float64{"sim_cycle/sec": 41900}},
		{Name: "BenchmarkHostParallelScaling/Parallel,_memory_intensive/workers-1", Iterations: 5,
			Metrics: map[string]float64{"sim_cycle/sec": 41300}},
		{Name: "BenchmarkHostParallelScaling/Parallel,_memory_intensive/workers-4-8", Iterations: 5,
			Metrics: map[string]float64{"sim_cycle/sec": 43300}},
	}}
	s := summarize(f)
	for _, want := range []string{
		"bench 2026-08-06 (go1.24.0, 1 CPUs): 4 benchmarks",
		"TableI par-mem 49.0k sim_cycle/sec",
		"wauto=41.9k", "w1=41.3k", "w4=43.3k",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q: %s", want, s)
		}
	}
	if strings.Contains(s, "w2=") {
		t.Errorf("summary invents missing worker counts: %s", s)
	}
}

func TestCompact(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{{48992, "49.0k"}, {1.5e6, "1.5M"}, {512, "512"}}
	for _, c := range cases {
		if got := compact(c.v); got != c.want {
			t.Errorf("compact(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestAppendHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hist.jsonl")
	a := &benchFile{Schema: benchSchema, Date: "d1"}
	b := &benchFile{Schema: benchSchema, Date: "d2"}
	if err := appendHistory(path, a); err != nil {
		t.Fatal(err)
	}
	if err := appendHistory(path, b); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("history has %d lines:\n%s", len(lines), data)
	}
	var got benchFile
	if err := json.Unmarshal([]byte(lines[1]), &got); err != nil {
		t.Fatal(err)
	}
	if got.Schema != benchSchema || got.Date != "d2" {
		t.Fatalf("last entry %+v", got)
	}
}
