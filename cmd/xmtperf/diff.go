package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// direction says which way a metric is allowed to move freely.
type direction int

const (
	lowerBetter direction = iota // e.g. cycles, stall cycles
	infoOnly                     // reported, never gated (e.g. instruction counts)
)

type metric struct {
	Value float64
	Dir   direction
}

// artifact is one loaded counter snapshot flattened to named metrics.
type artifact struct {
	Label   string
	Metrics map[string]metric
}

type verdict string

const (
	verdictOK        verdict = "ok"
	verdictRegressed verdict = "REGRESSED"
	verdictImproved  verdict = "improved"
	verdictNew       verdict = "new"
	verdictGone      verdict = "gone"
)

type row struct {
	Name         string
	Old, New     float64
	DeltaPct     float64 // signed relative change, percent (NaN when Old==0)
	ThresholdPct float64
	Verdict      verdict
}

// countersFile is the subset of the xmt-counters/v1 snapshot the differ
// gates on.
type countersFile struct {
	Schema       string `json:"schema"`
	Cycle        float64
	Instructions struct {
		Total float64 `json:"total"`
	} `json:"instructions"`
	Stalls map[string]float64 `json:"stalls"`
	Memory struct {
		CacheHits     float64 `json:"cache_hits"`
		CacheMisses   float64 `json:"cache_misses"`
		QueueFull     float64 `json:"queue_full"`
		DRAMTotal     float64 `json:"dram_total"`
		ICNTraversals float64 `json:"icn_traversals"`
		LoadLatency   struct {
			P50 float64 `json:"p50"`
			P99 float64 `json:"p99"`
		} `json:"load_latency"`
	} `json:"memory"`
	PrefixSum struct {
		Latency struct {
			P99 float64 `json:"p99"`
		} `json:"latency"`
	} `json:"prefix_sum"`
}

// loadArtifact reads an xmt-counters/v1 snapshot.
func loadArtifact(path string) (*artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseCounters(path, data)
}

func parseCounters(label string, data []byte) (*artifact, error) {
	var cf countersFile
	if err := json.Unmarshal(data, &cf); err != nil {
		return nil, fmt.Errorf("%s: %v", label, err)
	}
	if !strings.HasPrefix(cf.Schema, "xmt-counters/") {
		return nil, fmt.Errorf("%s: not a counter snapshot (want schema xmt-counters/v1, got %q)", label, cf.Schema)
	}
	var stalls float64
	for _, v := range cf.Stalls {
		stalls += v
	}
	art := &artifact{Label: label, Metrics: map[string]metric{
		"cycles":           {cf.Cycle, lowerBetter},
		"instrs":           {cf.Instructions.Total, infoOnly},
		"stall_cycles":     {stalls, lowerBetter},
		"cache_miss_rate":  {ratio(cf.Memory.CacheMisses, cf.Memory.CacheHits+cf.Memory.CacheMisses), lowerBetter},
		"cache_queue_full": {cf.Memory.QueueFull, lowerBetter},
		"dram_accesses":    {cf.Memory.DRAMTotal, lowerBetter},
		"icn_traversals":   {cf.Memory.ICNTraversals, lowerBetter},
		"load_latency_p99": {cf.Memory.LoadLatency.P99, lowerBetter},
		"ps_latency_p99":   {cf.PrefixSum.Latency.P99, lowerBetter},
	}}
	return art, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// compare produces one row per metric present in either artifact, sorted by
// name. A metric regresses when it moves beyond its threshold in the bad
// direction; info-only metrics and zero-baseline metrics never regress.
func compare(oldArt, newArt *artifact, defPct float64, overrides map[string]float64) []row {
	keys := map[string]bool{}
	for k := range oldArt.Metrics {
		keys[k] = true
	}
	for k := range newArt.Metrics {
		keys[k] = true
	}
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)

	rows := make([]row, 0, len(names))
	for _, name := range names {
		o, hasOld := oldArt.Metrics[name]
		n, hasNew := newArt.Metrics[name]
		r := row{Name: name, Old: o.Value, New: n.Value, ThresholdPct: defPct}
		if pct, ok := overrides[name]; ok {
			r.ThresholdPct = pct
		}
		switch {
		case !hasOld:
			r.Verdict, r.DeltaPct = verdictNew, math.NaN()
		case !hasNew:
			r.Verdict, r.DeltaPct = verdictGone, math.NaN()
		default:
			if o.Value == 0 {
				r.DeltaPct = math.NaN()
				r.Verdict = verdictOK
				break
			}
			r.DeltaPct = (n.Value - o.Value) / o.Value * 100
			bad := r.DeltaPct // lower-better: an increase is bad
			switch {
			case o.Dir == infoOnly:
				r.Verdict = verdictOK
			case bad > r.ThresholdPct:
				r.Verdict = verdictRegressed
			case bad < -r.ThresholdPct:
				r.Verdict = verdictImproved
			default:
				r.Verdict = verdictOK
			}
		}
		rows = append(rows, r)
	}
	return rows
}

// renderMarkdown formats the verdict table.
func renderMarkdown(oldLabel, newLabel string, rows []row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "## xmtperf: %s → %s\n\n", oldLabel, newLabel)
	b.WriteString("| metric | old | new | Δ% | threshold | verdict |\n")
	b.WriteString("|---|---:|---:|---:|---:|---|\n")
	for _, r := range rows {
		delta := "—"
		if !math.IsNaN(r.DeltaPct) {
			delta = fmt.Sprintf("%+.1f%%", r.DeltaPct)
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %g%% | %s |\n",
			r.Name, num(r.Old), num(r.New), delta, r.ThresholdPct, r.Verdict)
	}
	return b.String()
}

// num renders values compactly: integers without decimals, rates with a few.
func num(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}
