package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// ResultSchema versions the result file written by a full set of runs.
const ResultSchema = "xmtbench/v1"

// HostFacts are recorded with every result so that numbers from different
// machines are never compared by accident.
type HostFacts struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	MemMB      int    `json:"mem_mb"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	Commit     string `json:"commit"`
}

// ResultFile is one full set of runs: every workload, Runs untraced runs on
// consecutive seeds for the end-to-end metrics and one traced run for the
// per-layer ones.
type ResultFile struct {
	Schema    string           `json:"schema"`
	Host      HostFacts        `json:"host"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Runs      int              `json:"runs"`
	Smoke     bool             `json:"smoke,omitempty"`
	Workloads []WorkloadResult `json:"workloads"`
}

// WorkloadResult is one workload's row of a ResultFile.
type WorkloadResult struct {
	Name      string            `json:"name"`
	Attempted []int             `json:"attempted"` // operations per untraced run
	Failed    int               `json:"failed"`    // over every run, traced too
	EndToEnd  map[string]Series `json:"end_to_end"`
	PerLayer  map[string]Value  `json:"per_layer"`
	Trace     string            `json:"trace"`
}

// Series is one end-to-end metric over the untraced runs.
type Series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

// Spread is the interquartile distance as a share of the median — the
// driver's measure of run-to-run noise.
func (s Series) Spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

func newSeries(unit string, vals []float64) Series {
	q1, q3 := quartiles(vals)
	return Series{Unit: unit, Values: vals, Median: median(vals), Q1: q1, Q3: q3}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is what
// the driver computes its spreads from.
func quartiles(vals []float64) (q1, q3 float64) {
	n := len(vals)
	if n < 2 {
		if n == 1 {
			return vals[0], vals[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// hostFacts reads the machine's identity from /proc and the toolchain.
func hostFacts() HostFacts {
	h := HostFacts{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		CPUModel:   "unknown",
		Commit:     "unknown",
	}
	if v := procField("/proc/cpuinfo", "model name"); v != "" {
		h.CPUModel = v
	}
	if kb, err := strconv.Atoi(strings.TrimSuffix(procField("/proc/meminfo", "MemTotal"), " kB")); err == nil {
		h.MemMB = kb / 1024
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// procField returns the value of the first "key : value" line of a /proc
// file.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// fullRuns is how many untraced runs, on consecutive seeds, a full set
// makes of each workload: the ten the driver takes its spreads from. A smoke
// set makes one.
const fullRuns = 10

// FullOptions configure a full set of runs.
type FullOptions struct {
	Seed    uint64
	Seconds float64
	Smoke   bool
}

// RunAll runs every workload of the manifest, each run in a child process
// of its own so that no workload inherits another's heap, memory pool or
// peak RSS, prints every metric by name with its unit and writes the result
// file to OutDir.
func RunAll(man *Manifest, o FullOptions, w io.Writer) (*ResultFile, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(OutDir, 0o755); err != nil {
		return nil, err
	}
	runs := fullRuns
	if o.Smoke {
		runs = 1
	}
	rf := &ResultFile{Schema: ResultSchema, Host: hostFacts(), Seed: o.Seed, Seconds: o.Seconds, Runs: runs, Smoke: o.Smoke}
	fmt.Fprintf(w, "host: %s, %d cpus (GOMAXPROCS %d), %d MB, %s %s, commit %s\n",
		rf.Host.CPUModel, rf.Host.NProc, rf.Host.GOMAXPROCS, rf.Host.MemMB, rf.Host.GoVersion, rf.Host.OSArch, rf.Host.Commit)
	fmt.Fprintf(w, "%d untraced runs (seeds %d..%d) and 1 traced run per workload, %g s measured each\n\n",
		runs, o.Seed, o.Seed+uint64(runs)-1, o.Seconds)

	child := func(name string, seed uint64, trace int) (*RunResult, error) {
		args := []string{"--workload", name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(o.Seconds), "--trace", fmt.Sprint(trace)}
		if o.Smoke {
			args = append(args, "--smoke")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output() // waits for the child to end
		if err != nil {
			return nil, fmt.Errorf("%s (seed %d, trace %d): %w", name, seed, trace, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res RunResult
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return nil, fmt.Errorf("%s: last line of output is not a result object: %w", name, err)
		}
		return &res, nil
	}

	// The untraced runs go round-robin over the workloads — run 1 of each,
	// then run 2 of each — and not workload by workload: the shared host's
	// disturbances last minutes, and this way one of them costs every
	// workload a run or two, which the quartiles shrug off, instead of
	// costing one workload most of its runs.
	rows := make([]WorkloadResult, len(man.Workloads))
	vals := make([]map[string][]float64, len(man.Workloads))
	for i, wd := range man.Workloads {
		rows[i] = WorkloadResult{Name: wd.Name, EndToEnd: map[string]Series{}, Trace: filepath.Join(OutDir, "trace-"+wd.Name+".json")}
		vals[i] = map[string][]float64{}
	}
	for r := 0; r < runs; r++ {
		for i, wd := range man.Workloads {
			res, err := child(wd.Name, o.Seed+uint64(r), 0)
			if err != nil {
				return nil, err
			}
			rows[i].Attempted = append(rows[i].Attempted, res.Attempted)
			rows[i].Failed += res.Failed
			for k, v := range res.Metrics {
				vals[i][k] = append(vals[i][k], v.Value)
			}
		}
		fmt.Fprintf(w, "untraced run %d of %d made of every workload\n", r+1, runs)
	}
	fmt.Fprintln(w)
	for i, wd := range man.Workloads {
		wr, vals := rows[i], vals[i]
		traced, err := child(wd.Name, o.Seed, 1)
		if err != nil {
			return nil, err
		}
		wr.Failed += traced.Failed
		wr.PerLayer = traced.Metrics

		fmt.Fprintf(w, "%s — %s\n", wd.Name, wd.Why)
		fmt.Fprintf(w, "  operations per run %v, failed %d\n", wr.Attempted, wr.Failed)
		for _, e := range man.EndToEnd {
			s := newSeries(e.Unit, vals[e.Name])
			wr.EndToEnd[e.Name] = s
			fmt.Fprintf(w, "  %-30s %14.4f %-9s spread %5.2f%% (bound %2.0f%%)\n", e.Name, s.Median, e.Unit, s.Spread()*100, e.Bound*100)
		}
		for _, l := range man.PerLayer {
			if v := wr.PerLayer[l.Name]; v.Value != 0 {
				fmt.Fprintf(w, "    %-28s %14.4f %s\n", l.Name, v.Value, l.Unit)
			}
		}
		fmt.Fprintf(w, "    (per-layer metrics not listed are 0: the workload bypasses that layer)\n    trace: %s\n\n", wr.Trace)
		rf.Workloads = append(rf.Workloads, wr)
	}

	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(OutDir, "result.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "wrote %s\n", path)
	return rf, nil
}

// LoadResult reads a result file.
func LoadResult(path string) (*ResultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf ResultFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rf.Schema != ResultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rf.Schema, ResultSchema)
	}
	return &rf, nil
}
