// Command xmtperf compares two counter snapshots of the simulated machine
// and fails on regression (docs/OBSERVABILITY.md §xmtperf).
//
// Both files are xmt-counters/v1 snapshots, as written by -counters-json;
// a curated set of performance-relevant counters is compared.
//
// Usage:
//
//	xmtperf [flags] old.json new.json
//
// Each metric has a direction (lower-better for cycles, stalls, miss rate,
// latencies; instrs is informational) and a relative threshold: a change
// beyond the threshold in the bad direction is a regression. The verdict
// table is markdown; the exit status is 1 when any metric regressed and 2
// on a usage error, including a -t that names no metric.
//
// Examples:
//
//	xmtperf old_counters.json new_counters.json
//	xmtperf -threshold 5 -t load_latency_p99=20 old.json new.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

type thresholdFlag map[string]float64

func (t thresholdFlag) String() string { return "" }
func (t thresholdFlag) Set(v string) error {
	name, pct, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want metric=percent, got %q", v)
	}
	f, err := strconv.ParseFloat(pct, 64)
	if err != nil || f < 0 {
		return fmt.Errorf("bad threshold percent in %q", v)
	}
	t[name] = f
	return nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command; it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xmtperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	thresholds := thresholdFlag{}
	defPct := fs.Float64("threshold", 10, "default allowed change in the bad direction, percent")
	mdOut := fs.String("md", "", "also write the verdict table to this file")
	fs.Var(thresholds, "t", "per-metric threshold override, metric=percent (repeatable)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: xmtperf [flags] old.json new.json")
		fs.PrintDefaults()
		return 2
	}
	oldArt, err := loadArtifact(fs.Arg(0))
	var newArt *artifact
	if err == nil {
		newArt, err = loadArtifact(fs.Arg(1))
	}
	if err != nil {
		fmt.Fprintln(stderr, "xmtperf:", err)
		return 1
	}

	rows := compare(oldArt, newArt, *defPct, thresholds)
	names := make([]string, len(rows))
	for i, r := range rows {
		names[i] = r.Name
	}
	var unknown []string
	for name := range thresholds {
		if !slices.Contains(names, name) {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		slices.Sort(unknown)
		fmt.Fprintf(stderr, "xmtperf: -t names no metric: %s\nmetrics: %s\n",
			strings.Join(unknown, ", "), strings.Join(names, ", "))
		return 2
	}

	table := renderMarkdown(oldArt.Label, newArt.Label, rows)
	fmt.Fprint(stdout, table)
	if *mdOut != "" {
		if err := os.WriteFile(*mdOut, []byte(table), 0o644); err != nil {
			fmt.Fprintln(stderr, "xmtperf:", err)
			return 1
		}
	}
	regressed := 0
	for _, r := range rows {
		if r.Verdict == verdictRegressed {
			regressed++
		}
	}
	if regressed > 0 {
		fmt.Fprintf(stderr, "xmtperf: %d metric(s) regressed beyond threshold\n", regressed)
		return 1
	}
	fmt.Fprintf(stderr, "xmtperf: no regressions (%d metrics compared)\n", len(rows))
	return 0
}
