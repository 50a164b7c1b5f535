// Command xmtbatch drives a batch of simulation jobs to completion with
// per-job cycle budgets, periodic checkpoints, and bounded retry-with-backoff
// — the workflow the paper describes for long simulation campaigns (§III-E),
// hardened so a single wedged or slow job never sinks the batch
// (docs/ROBUSTNESS.md).
//
// Usage:
//
//	xmtbatch [flags] jobs.txt
//
// The jobs file holds one job per line:
//
//	name program.{s,c} [key=value ...]
//
// where the optional key=value pairs override the base configuration for
// that job only. Blank lines and lines starting with '#' are skipped.
//
// Examples:
//
//	xmtbatch -timeout 5000000 -retries 3 -out ckpt/ jobs.txt
//	xmtbatch -config chip1024 -set dram_latency=40 jobs.txt
//	xmtbatch -checkpoint-every 1000000 -timeout 2000000 jobs.txt
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"xmtgo/internal/asm"
	"xmtgo/internal/batch"
	"xmtgo/internal/config"
	"xmtgo/internal/jobrun"
	"xmtgo/internal/sigctl"
	"xmtgo/internal/sim/metrics"
)

type listFlag []string

func (l *listFlag) String() string     { return strings.Join(*l, ",") }
func (l *listFlag) Set(v string) error { *l = append(*l, v); return nil }

func main() {
	var sets listFlag
	var (
		cfgName   = flag.String("config", "fpga64", "machine preset: fpga64 or chip1024")
		timeout   = flag.Int64("timeout", 0, "first-attempt cycle budget per job (0 = unlimited, disables retries)")
		ckptEvery = flag.Int64("checkpoint-every", 0, "checkpoint each job every N cluster cycles (0 = only program-requested checkpoints)")
		retries   = flag.Int("retries", 2, "retry attempts per failed or timed-out job")
		backoff   = flag.Float64("backoff", 2, "cycle-budget multiplier between attempts")
		outDir    = flag.String("out", "", "directory for per-job checkpoint files (empty = retries restart from scratch)")
		workers   = flag.Int("workers", 0, config.HostWorkersUsage)
		quiet     = flag.Bool("q", false, "suppress per-attempt progress lines")

		serveAddr    = flag.String("serve", "", "serve live metrics on this address while the batch runs (/metrics, /status, /stream)")
		sampleCycles = flag.Int64("sample-cycles", -1, "interval-sampler period for -serve in cluster cycles (-1 = keep the preset's sample_cycles)")
		pprofFlag    = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the -serve address")
	)
	flag.Var(&sets, "set", "override one configuration key=value for every job (repeatable)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: xmtbatch [flags] jobs.txt")
		flag.Usage()
		os.Exit(2)
	}

	cfg, err := config.Preset(*cfgName)
	if err != nil {
		fatal(err)
	}
	for _, kv := range sets {
		if err := cfg.Set(kv); err != nil {
			fatal(err)
		}
	}
	if *workers != 0 {
		cfg.HostWorkers = *workers
	}

	jobs, err := loadJobs(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	if len(jobs) == 0 {
		fatal(fmt.Errorf("%s: no jobs", flag.Arg(0)))
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
	}

	if *sampleCycles >= 0 {
		cfg.SampleCycles = *sampleCycles
	}

	opts := batch.Options{
		Config:          cfg,
		TimeoutCycles:   *timeout,
		CheckpointEvery: *ckptEvery,
		Retries:         *retries,
		Backoff:         *backoff,
		OutDir:          *outDir,
		SampleCycles:    cfg.SampleCycles,
	}
	if !*quiet {
		opts.Log = os.Stderr
	}
	if *serveAddr != "" {
		msrv := metrics.NewServer()
		if *pprofFlag {
			msrv.EnablePprof()
		}
		addr, err := msrv.ListenAndServe(*serveAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "serving metrics on http://%s (/metrics /status /stream)\n", addr)
		opts.Monitor = msrv
		defer msrv.Close()
	} else if *pprofFlag {
		fatal(fmt.Errorf("-pprof requires -serve"))
	}
	// First SIGINT/SIGTERM checkpoints the running job at its next quiescent
	// point (persisted under -out as usual), skips the jobs not yet started,
	// and exits cleanly; a second signal forces exit.
	intr := &batch.Interrupt{}
	opts.Interrupt = intr
	stopSig := sigctl.Notify("xmtbatch", intr.Trigger)
	defer stopSig()
	results := batch.Run(jobs, opts)

	failed := 0
	interrupted := 0
	for _, r := range results {
		if errors.Is(r.Err, batch.ErrInterrupted) {
			interrupted++
			fmt.Printf("INTR %-20s attempts=%d resumes=%d cycles=%d (checkpoint saved; re-run to resume)\n",
				r.Name, r.Attempts, r.Resumes, r.Cycles)
			continue
		}
		if r.Err != nil {
			failed++
			fmt.Printf("FAIL %-20s attempts=%d resumes=%d: %v\n", r.Name, r.Attempts, r.Resumes, r.Err)
			continue
		}
		fmt.Printf("ok   %-20s attempts=%d resumes=%d cycles=%d instrs=%d output=%q\n",
			r.Name, r.Attempts, r.Resumes, r.Cycles, r.Instrs, r.Output)
	}
	if interrupted > 0 {
		fmt.Fprintf(os.Stderr, "xmtbatch: interrupted; %d of %d jobs not finished\n",
			interrupted+len(jobs)-len(results), len(jobs))
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "xmtbatch: %d of %d jobs failed\n", failed, len(results))
		os.Exit(1)
	}
}

// loadJobs parses the jobs file: one "name program [key=value ...]" per
// line, assembling .s sources directly and compiling anything else as XMTC.
func loadJobs(path string) ([]batch.Job, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	var jobs []batch.Job
	seen := map[string]bool{}
	sc := bufio.NewScanner(f)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("%s:%d: want \"name program [key=value ...]\"", path, lineNo)
		}
		name, progPath := fields[0], fields[1]
		if seen[name] {
			return nil, fmt.Errorf("%s:%d: duplicate job name %q", path, lineNo, name)
		}
		seen[name] = true
		for _, kv := range fields[2:] {
			if !strings.Contains(kv, "=") {
				return nil, fmt.Errorf("%s:%d: override %q is not key=value", path, lineNo, kv)
			}
		}
		prog, err := loadProgram(progPath)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, lineNo, err)
		}
		jobs = append(jobs, batch.Job{Name: name, Prog: prog, Sets: fields[2:]})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return jobs, nil
}

// loadProgram reads one job's source and builds it: .s files as handwritten
// assembly (post-pass verified), anything else as XMTC.
func loadProgram(path string) (*asm.Program, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	kind := "xmtc"
	if filepath.Ext(path) == ".s" {
		kind = "asm"
	}
	prog, warnings, err := jobrun.Load(kind, path, string(src))
	for _, w := range warnings {
		fmt.Fprintln(os.Stderr, w)
	}
	return prog, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xmtbatch:", err)
	os.Exit(1)
}
