// Command xmtbatch drives a batch of simulation jobs to completion with
// per-job cycle budgets, periodic checkpoints, and bounded retry-with-backoff
// — the workflow the paper describes for long simulation campaigns (§III-E),
// hardened so a single wedged or slow job never sinks the batch
// (docs/ROBUSTNESS.md).
//
// It is a jobs-file front end to the xmtd core (internal/daemon) run
// in-process with one worker: the jobs go through the daemon's queue in
// file order, and -out is its data directory (journal and checkpoint
// files), so re-running the same command reports finished jobs from the
// journal and resumes interrupted ones where they stopped.
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
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"xmtgo/internal/config"
	"xmtgo/internal/daemon"
	"xmtgo/internal/jobrun"
	"xmtgo/internal/sigctl"
	"xmtgo/internal/sim/metrics"
)

// exitCode carries run's exit status out of fatal; run recovers it so tests
// can drive the batch in-process.
type exitCode int

// newServer makes the -serve metrics server. Tests replace it to read what
// the batch published after run returns.
var newServer = metrics.NewServer

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) (code int) {
	defer func() {
		if r := recover(); r != nil {
			c, ok := r.(exitCode)
			if !ok {
				panic(r)
			}
			code = int(c)
		}
	}()
	fatal := func(err error) {
		fmt.Fprintln(stderr, "xmtbatch:", err)
		panic(exitCode(1))
	}

	fs := flag.NewFlagSet("xmtbatch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var sets []string
	var (
		cfgName   = fs.String("config", "fpga64", "machine preset: fpga64 or chip1024")
		timeout   = fs.Int64("timeout", 0, "first-attempt cycle budget per job (0 = unlimited: only failed attempts retry)")
		ckptEvery = fs.Int64("checkpoint-every", 0, "checkpoint each job every N cluster cycles (0 = only program-requested checkpoints)")
		retries   = fs.Int("retries", 2, "retry attempts per failed or timed-out job")
		backoff   = fs.Float64("backoff", 2, "cycle-budget and watchdog multiplier between attempts")
		outDir    = fs.String("out", "", "data directory (job journal + checkpoint files) a re-run resumes from (empty = a temporary one removed at exit)")
		workers   = fs.Int("workers", 0, config.HostWorkersUsage)
		quiet     = fs.Bool("q", false, "suppress per-attempt progress lines")

		serveAddr    = fs.String("serve", "", "serve live metrics on this address while the batch runs (/metrics, /status, /stream, /logs)")
		sampleCycles = fs.Int64("sample-cycles", -1, "interval-sampler period for -serve in cluster cycles (-1 = keep the preset's sample_cycles)")
		pprofFlag    = fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the -serve address")
	)
	fs.Func("set", "override one configuration key=value for every job (repeatable)", func(kv string) error {
		sets = append(sets, kv)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: xmtbatch [flags] jobs.txt")
		fs.Usage()
		return 2
	}

	cfg, err := config.Resolve(*cfgName, "", sets)
	if err != nil {
		fatal(err)
	}
	if *workers != 0 {
		cfg.HostWorkers = *workers
	}
	if *sampleCycles >= 0 {
		cfg.SampleCycles = *sampleCycles
	}

	jobs, err := loadJobs(fs.Arg(0), stderr)
	if err != nil {
		fatal(err)
	}
	if len(jobs) == 0 {
		fatal(fmt.Errorf("%s: no jobs", fs.Arg(0)))
	}
	dataDir := *outDir
	if dataDir == "" {
		if dataDir, err = os.MkdirTemp("", "xmtbatch"); err != nil {
			fatal(err)
		}
		defer os.RemoveAll(dataDir)
	}

	opts := daemon.Options{
		Config:          cfg,
		DataDir:         dataDir,
		Workers:         1, // one job at a time, in submission order
		BudgetCycles:    *timeout,
		CheckpointEvery: *ckptEvery,
		Retries:         *retries,
		Backoff:         *backoff,
		// The jobs file is the only client: every job in it is queued at
		// once, so the admission bound must not turn jobs away.
		MaxQueued: math.MaxInt,
		LogLevel:  slog.LevelDebug, // a line per checkpoint, as xmtd -log-level debug
	}
	if !*quiet {
		opts.Log = stderr
	}
	msrv, err := metrics.Serve(newServer, *serveAddr, *pprofFlag, stderr)
	if err != nil {
		fatal(err)
	}
	if msrv != nil {
		opts.Monitor = msrv
		defer msrv.Close()
	}

	// First SIGINT/SIGTERM drains: the running job checkpoints at its next
	// quiescent point, and it and the jobs not yet run stay journaled as
	// queued for the next run on this -out. A second signal forces exit.
	interrupted := make(chan struct{})
	stopSig := sigctl.Notify("xmtbatch", func() { close(interrupted) })
	defer stopSig()

	d, err := daemon.New(opts)
	if err != nil {
		fatal(err)
	}
	// A name the journal holds as done is reported from it; one it holds
	// as queued was resumed by daemon.New. Failed, canceled and new names
	// are submitted afresh. Unfinished jobs of names the file no longer
	// lists are canceled rather than run unseen.
	latest := map[string]daemon.JobStatus{}
	for _, st := range d.List("") {
		latest[st.Name] = st
	}
	listed := map[string]bool{}
	for _, j := range jobs {
		listed[j.name] = true
	}
	for name, st := range latest {
		if !listed[name] && (st.State == daemon.StateQueued || st.State == daemon.StateRunning) {
			d.Cancel(st.ID)
		}
	}
	for i := range jobs {
		j := &jobs[i]
		if st, ok := latest[j.name]; ok && st.State != daemon.StateFailed && st.State != daemon.StateCanceled {
			j.id = st.ID
		} else if st, aerr := d.Submit(&daemon.JobSpec{Name: j.name, Kind: j.kind, Source: j.src, Sets: j.sets}); aerr != nil {
			j.submitErr = aerr
		} else {
			j.id = st.ID
		}
	}

	// Wait for every job, in short slices so that an interrupt is seen
	// within one: a job Drain is about to suspend would never finish here.
wait:
	for _, j := range jobs {
		for j.id != "" {
			if _, aerr := d.Wait(j.id, 100*time.Millisecond); aerr == nil {
				break
			}
			select {
			case <-interrupted:
				break wait
			default:
			}
		}
	}
	if err := d.Drain(); err != nil {
		fatal(err)
	}

	failed, unfinished := 0, 0
	for _, j := range jobs {
		if j.submitErr != nil {
			failed++
			fmt.Fprintf(stdout, "FAIL %-20s attempts=0 resumes=0: %v\n", j.name, j.submitErr)
			continue
		}
		st, _ := d.Status(j.id)
		switch st.State {
		case daemon.StateDone:
			r := st.Result
			fmt.Fprintf(stdout, "ok   %-20s attempts=%d resumes=%d cycles=%d instrs=%d output=%q\n",
				j.name, st.Attempt, st.Resumes, r.Cycles, r.Instrs, r.Output)
		case daemon.StateFailed, daemon.StateCanceled:
			failed++
			fmt.Fprintf(stdout, "FAIL %-20s attempts=%d resumes=%d: %s\n", j.name, st.Attempt, st.Resumes, st.Result.Err)
		default:
			unfinished++
			saved := "checkpoint saved; re-run to resume"
			if *outDir == "" {
				saved = "no -out: nothing kept"
			}
			fmt.Fprintf(stdout, "INTR %-20s attempts=%d resumes=%d cycles=%d (%s)\n",
				j.name, st.Attempt, st.Resumes, st.Cycles, saved)
		}
	}
	if unfinished > 0 {
		fmt.Fprintf(stderr, "xmtbatch: interrupted; %d of %d jobs not finished\n", unfinished, len(jobs))
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "xmtbatch: %d of %d jobs failed\n", failed, len(jobs))
		return 1
	}
	return 0
}

// job is one line of the jobs file, its program already checked to load,
// and the daemon job it became (or why Submit refused it).
type job struct {
	name, kind, src string
	sets            []string

	id        string
	submitErr error
}

// loadJobs parses the jobs file: one "name program [key=value ...]" per
// line. Each program is built once here (.s files as post-pass-verified
// assembly, anything else as XMTC), so a bad one fails the batch before any
// job runs, naming its file:line.
func loadJobs(path string, stderr io.Writer) ([]job, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	var jobs []job
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
		src, err := os.ReadFile(progPath)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, lineNo, err)
		}
		kind := "xmtc"
		if filepath.Ext(progPath) == ".s" {
			kind = "asm"
		}
		_, warnings, err := jobrun.Load(kind, progPath, string(src))
		for _, w := range warnings {
			fmt.Fprintln(stderr, w)
		}
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, lineNo, err)
		}
		jobs = append(jobs, job{name: name, kind: kind, src: string(src), sets: fields[2:]})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return jobs, nil
}
