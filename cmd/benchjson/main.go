// Command benchjson converts `go test -bench` output (on stdin) into a
// machine-readable JSON record, or a one-line summary for EXPERIMENTS.md.
// scripts/bench.sh uses it to keep a perf trajectory across PRs:
//
//	go test -bench . -benchmem | benchjson -date 2026-08-06 -o BENCH_2026-08-06.json
//	go test -bench . -benchmem | benchjson -date 2026-08-06 -summary
//	go test -bench . -benchmem | benchjson -date 2026-08-06 -history BENCH_HISTORY.jsonl
//
// -history appends the record as one compact JSON line to a cross-run
// history file; cmd/xmtperf diffs consecutive entries to gate regressions.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

type benchResult struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// benchSchema versions the record layout (JSON file and history lines).
const benchSchema = "xmt-bench/v1"

type benchFile struct {
	Schema  string        `json:"schema"`
	Date    string        `json:"date"`
	Go      string        `json:"go"`
	CPUs    int           `json:"cpus"`
	CPUName string        `json:"cpu_name,omitempty"`
	Results []benchResult `json:"results"`
}

func main() {
	var (
		date    = flag.String("date", "", "date stamp recorded in the output")
		out     = flag.String("o", "", "write JSON here (default stdout)")
		summary = flag.Bool("summary", false, "emit a one-line summary instead of JSON")
		history = flag.String("history", "", "append the record as one JSON line to this history file")
	)
	flag.Parse()

	file := benchFile{Schema: benchSchema, Date: *date, Go: runtime.Version(), CPUs: runtime.NumCPU()}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			file.CPUName = strings.TrimSpace(cpu)
		}
		if r, ok := parseBenchLine(line); ok {
			file.Results = append(file.Results, r)
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}

	if *history != "" {
		if err := appendHistory(*history, &file); err != nil {
			fatal(err)
		}
	}
	if *summary {
		fmt.Println(summarize(&file))
		return
	}
	data, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
}

// appendHistory adds the record as one compact JSON line at the end of
// path, creating the file on first use.
func appendHistory(path string, file *benchFile) error {
	line, err := json.Marshal(file)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(line, '\n'))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// parseBenchLine parses one result line:
//
//	BenchmarkFoo/sub-8   5   234 ns/op   509 sim_cycle/sec   12 B/op   3 allocs/op
func parseBenchLine(line string) (benchResult, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return benchResult{}, false
	}
	f := strings.Fields(line)
	if len(f) < 4 {
		return benchResult{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return benchResult{}, false
	}
	r := benchResult{Name: f[0], Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return benchResult{}, false
		}
		r.Metrics[f[i+1]] = v
	}
	return r, true
}

// summarize renders the one-line EXPERIMENTS.md record: the Table I
// throughput, the host-parallel scaling curve, the cluster-compute anchor
// (BenchmarkTCUIssue) and the event-list anchor (BenchmarkSchedulerEdge),
// when present.
func summarize(f *benchFile) string {
	var b strings.Builder
	fmt.Fprintf(&b, "- bench %s (%s, %d CPUs): %d benchmarks", f.Date, f.Go, f.CPUs, len(f.Results))
	if v, ok := metricOf(f, "BenchmarkTableI_ParallelMemory", "sim_cycle/sec"); ok {
		fmt.Fprintf(&b, "; TableI par-mem %s sim_cycle/sec", compact(v))
	}
	var scale []string
	for _, w := range []string{"auto", "1", "2", "4", "8"} {
		name := "BenchmarkHostParallelScaling/Parallel,_memory_intensive/workers-" + w
		if v, ok := metricOf(f, name, "sim_cycle/sec"); ok {
			scale = append(scale, fmt.Sprintf("w%s=%s", w, compact(v)))
		}
	}
	if len(scale) > 0 {
		fmt.Fprintf(&b, "; scaling %s", strings.Join(scale, " "))
	}
	if v, ok := metricOf(f, "BenchmarkTCUIssue", "host_ns/sim_instr"); ok {
		fmt.Fprintf(&b, "; TCU issue %.1f host_ns/sim_instr", v)
	}
	serial, ok1 := metricOf(f, "BenchmarkSchedulerEdge/serial-section", "host_ns/event")
	contended, ok2 := metricOf(f, "BenchmarkSchedulerEdge/parallel-memory", "host_ns/event")
	if ok1 && ok2 {
		fmt.Fprintf(&b, "; scheduler edge %.1f / %.1f host_ns/event (serial-section / parallel-memory)", serial, contended)
	}
	return b.String()
}

// metricOf finds a benchmark by name, tolerating the -<GOMAXPROCS> suffix
// go test appends on multi-core hosts.
func metricOf(f *benchFile, name, metric string) (float64, bool) {
	for _, r := range f.Results {
		if r.Name == name || strings.HasPrefix(r.Name, name+"-") {
			v, ok := r.Metrics[metric]
			return v, ok
		}
	}
	return 0, false
}

func compact(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	}
	return fmt.Sprintf("%.0f", v)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
