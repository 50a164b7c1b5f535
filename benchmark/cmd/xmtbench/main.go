// Command xmtbench is the repository's benchmark (benchmark/README.md).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	bench "xmtgo/benchmark"
)

func main() {
	workload := flag.String("workload", "", "run this one workload in this process and print its result object")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 0, "how long one run measures (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics and a Chrome trace")
	smoke := flag.Bool("smoke", false, "tiny inputs and a fraction of a second per run: checks names and correctness, not speed")
	compare := flag.String("compare", "", "compare result file `A` with result file B (the next argument); exit 1 on a breach, 3 when only unresolved")
	flag.Parse()

	man, err := bench.LoadManifest(bench.ManifestFile)
	if err != nil {
		fatal(err)
	}
	if *compare != "" {
		if flag.NArg() != 1 {
			fatal(errors.New("usage: xmtbench -compare a.json b.json"))
		}
		a, err := bench.LoadResult(*compare)
		if err != nil {
			fatal(err)
		}
		b, err := bench.LoadResult(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		if err := bench.Compare(man, a, b, os.Stdout); err != nil {
			if errors.Is(err, bench.ErrBreach) {
				os.Exit(1)
			}
			if errors.Is(err, bench.ErrUnresolved) {
				os.Exit(3)
			}
			fmt.Fprintln(os.Stderr, "xmtbench:", err)
			os.Exit(2)
		}
		return
	}
	if *seconds == 0 {
		*seconds = float64(man.RunSeconds)
		if *smoke {
			*seconds = 0.2
		}
	}
	if *workload != "" {
		res, err := bench.Run(man, bench.RunOptions{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Smoke: *smoke})
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		return
	}
	rf, err := bench.RunAll(man, bench.FullOptions{Seed: *seed, Seconds: *seconds, Smoke: *smoke}, os.Stdout)
	if err != nil {
		fatal(err)
	}
	for _, w := range rf.Workloads {
		if w.Failed > 0 {
			fatal(fmt.Errorf("%s: %d operations failed", w.Name, w.Failed))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xmtbench:", err)
	os.Exit(1)
}
