// Package batch implements the resilient batch runner behind cmd/xmtbatch:
// it drives a list of simulation jobs to completion with per-job cycle
// budgets, periodic checkpoints, and bounded retry-with-backoff that resumes
// each retry from the job's last checkpoint — so a timed-out attempt loses
// at most one checkpoint interval of progress, and the growing budget
// eventually covers any finite job (docs/ROBUSTNESS.md).
//
// The paper motivates exactly this shape of tooling (§III-E): long
// simulation campaigns are run as batches, and checkpoints exist to
// load-balance and restart them without redoing completed work.
package batch

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"path/filepath"
	"sync"
	"sync/atomic"

	"xmtgo/internal/asm"
	"xmtgo/internal/config"
	"xmtgo/internal/jobrun"
	"xmtgo/internal/obs"
	"xmtgo/internal/sim/checkpoint"
	"xmtgo/internal/sim/cycle"
	"xmtgo/internal/sim/metrics"
)

// ErrInterrupted reports a batch stopped by Interrupt.Trigger (typically a
// SIGINT/SIGTERM handler): the current job checkpointed at its next
// quiescent point and no further work was started. Jobs already completed
// keep their normal results.
var ErrInterrupted = errors.New("batch: interrupted")

// Interrupt coordinates an external stop request with a running batch.
// Trigger is safe to call from any goroutine (including signal handlers):
// the currently running simulation is asked to checkpoint at its next
// quiescent point, the checkpoint is persisted as usual, and Run returns
// early with ErrInterrupted on the interrupted job.
type Interrupt struct {
	flag atomic.Bool

	mu  sync.Mutex
	sys *cycle.System
}

// Trigger requests the stop. Idempotent.
func (i *Interrupt) Trigger() {
	i.flag.Store(true)
	i.mu.Lock()
	if i.sys != nil {
		i.sys.RequestCheckpoint()
	}
	i.mu.Unlock()
}

// Triggered reports whether a stop has been requested.
func (i *Interrupt) Triggered() bool { return i.flag.Load() }

// attach points the interrupt at the segment currently simulating, so a
// trigger that raced with system construction is still delivered.
func (i *Interrupt) attach(sys *cycle.System) {
	i.mu.Lock()
	i.sys = sys
	if i.flag.Load() && sys != nil {
		sys.RequestCheckpoint()
	}
	i.mu.Unlock()
}

// Job is one simulation to drive to completion.
type Job struct {
	Name string
	Prog *asm.Program
	// Sets are per-job "key=value" config overrides applied on top of
	// Options.Config.
	Sets []string
}

// Options configures a batch run.
type Options struct {
	// Config is the base machine configuration for every job.
	Config config.Config
	// TimeoutCycles is the first attempt's total-cycle budget per job
	// (0 = unlimited, which also disables retries).
	TimeoutCycles int64
	// CheckpointEvery periodically checkpoints each job at quiescent points
	// so retries resume instead of restarting (0 = only program-requested
	// checkpoints persist progress).
	CheckpointEvery int64
	// Retries bounds how many times a failed or timed-out attempt is
	// retried (total attempts = Retries + 1).
	Retries int
	// Backoff multiplies the cycle budget between attempts (default 2).
	Backoff float64
	// OutDir receives per-job checkpoint files; empty disables persistence
	// (retries then restart from the beginning).
	OutDir string
	// Log, when set, receives per-attempt progress as structured JSON log
	// lines (one object per line; see internal/obs). Ignored when Logger is
	// set.
	Log io.Writer
	// Logger, when set, receives the structured progress records instead of
	// a default JSON logger writing to Log.
	Logger *slog.Logger
	// Monitor, when set, receives live telemetry: per-job batch progress on
	// /status and interval samples from the currently running job.
	Monitor *metrics.Server
	// SampleCycles is the interval-sampler period used when Monitor is set
	// (0 = a default cadence).
	SampleCycles int64
	// Interrupt, when set, lets a signal handler stop the batch cleanly:
	// the running job checkpoints and Run returns ErrInterrupted for it.
	Interrupt *Interrupt
}

// Result is the outcome of one job.
type Result struct {
	Name     string
	Attempts int   // attempts consumed (1 = first try succeeded)
	Resumes  int   // attempts that resumed from a checkpoint
	Cycles   int64 // absolute simulated cycle the final attempt stopped at
	// Instrs and Output are the job's totals across every segment and
	// attempt this process ran, equal to an uninterrupted run's when the job
	// completes. The .ckpt file holds simulator state only: a job resumed
	// from one left by an earlier process reports only the suffix after it.
	Instrs uint64
	Output string
	Err    error
}

// Run drives every job to completion (or to its retry bound) sequentially
// and returns one Result per job, in order.
func Run(jobs []Job, opts Options) []Result {
	if opts.Backoff <= 1 {
		opts.Backoff = 2
	}
	if opts.Logger == nil {
		// Default structured logger: JSON lines to Log (a nil Log discards).
		opts.Logger = obs.NewLogger(obs.HandlerOptions{Writer: opts.Log, Level: slog.LevelDebug})
	}
	prog := &progress{srv: opts.Monitor}
	prog.st.JobsTotal = len(jobs)
	prog.publish()
	results := make([]Result, 0, len(jobs))
	for _, j := range jobs {
		if opts.Interrupt != nil && opts.Interrupt.Triggered() {
			break // remaining jobs are simply not started
		}
		r := runJob(j, opts, prog)
		results = append(results, r)
		if r.Err != nil {
			prog.st.JobsFailed++
		} else {
			prog.st.JobsDone++
		}
		prog.st.Resumes += r.Resumes
		prog.st.Current, prog.st.Attempt, prog.st.BudgetCycles = "", 0, 0
		prog.publish()
		if errors.Is(r.Err, ErrInterrupted) {
			break
		}
	}
	return results
}

// progress tracks the campaign state published to the live metrics server.
type progress struct {
	srv *metrics.Server
	st  metrics.BatchStatus
}

func (p *progress) publish() {
	if p.srv != nil {
		p.srv.PublishBatch(p.st)
	}
}

func runJob(job Job, opts Options, prog *progress) Result {
	r := Result{Name: job.Name}
	jlog := opts.Logger.With("job", job.Name)
	cfg := opts.Config
	for _, kv := range job.Sets {
		if err := cfg.Set(kv); err != nil {
			r.Err = fmt.Errorf("job %s: %v", job.Name, err)
			return r
		}
	}

	// The batch's persistence policy on top of the shared runner: one plain
	// checkpoint file per job, rewritten at every stop. It holds simulator
	// state only, so the output and instruction totals survive retries in
	// this process (carried in the runner's Point) but not a re-run.
	var from jobrun.Point
	ckptPath := ""
	if opts.OutDir != "" {
		ckptPath = filepath.Join(opts.OutDir, job.Name+".ckpt")
		st, err := checkpoint.LoadFile(ckptPath)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			r.Err = fmt.Errorf("job %s: %v", job.Name, err)
			return r
		}
		from.State = st
	}
	run := jobrun.Runner{
		Prog:            job.Prog,
		Config:          cfg,
		CheckpointEvery: opts.CheckpointEvery,
		Monitor:         opts.Monitor,
		SampleCycles:    opts.SampleCycles,
		Checkpointed: func(next jobrun.Point) error {
			if ckptPath != "" {
				if err := checkpoint.SaveFile(ckptPath, next.State); err != nil {
					return err
				}
			}
			jlog.Debug("checkpoint", "op", "checkpoint", "cycle", next.Cycle(), "persisted", ckptPath != "")
			if opts.Interrupt != nil && opts.Interrupt.Triggered() {
				return ErrInterrupted
			}
			return nil
		},
	}
	if opts.Interrupt != nil {
		run.Started = opts.Interrupt.attach
	}

	budget := opts.TimeoutCycles
	for attempt := 0; ; attempt++ {
		r.Attempts = attempt + 1
		prog.st.Current, prog.st.Attempt, prog.st.BudgetCycles = job.Name, r.Attempts, budget
		prog.publish()
		if from.State != nil {
			r.Resumes++
		}
		out, err := run.Attempt(from, budget)
		r.Cycles, r.Instrs, r.Output = out.Cycles, out.Point.Instrs, out.Output
		switch {
		case errors.Is(err, ErrInterrupted):
			r.Err = err
			jlog.Info("interrupted", "op", "interrupt", "attempt", r.Attempts, "cycle", r.Cycles, "checkpoint_saved", ckptPath != "")
			return r
		case err != nil:
			err = fmt.Errorf("job %s: %v", job.Name, err)
		case out.Halted:
			jlog.Info("done", "op", "done", "attempt", r.Attempts, "cycles", r.Cycles, "instrs", r.Instrs, "resumes", r.Resumes)
			return r
		default:
			err = fmt.Errorf("job %s: cycle budget %d exhausted", job.Name, budget)
		}
		if attempt >= opts.Retries {
			r.Err = err
			jlog.Error("giving up", "op", "fail", "attempt", r.Attempts, "err", err.Error())
			return r
		}
		budget = jobrun.Budget(opts.TimeoutCycles, opts.Backoff, attempt+1)
		jlog.Warn("retrying", "op", "retry", "attempt", attempt+1, "err", err.Error(), "budget", budget)
		if ckptPath != "" {
			from = out.Point // without -out nothing persisted: restart
		}
	}
}
