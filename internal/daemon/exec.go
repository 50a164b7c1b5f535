package daemon

import (
	"errors"
	"fmt"

	"xmtgo/internal/jobrun"
	"xmtgo/internal/obs"
	"xmtgo/internal/sim/checkpoint"
	"xmtgo/internal/sim/cycle"
)

// sentinel outcomes of one attempt's segment loop.
var (
	errPreempted = errors.New("daemon: preempted")
	errDrained   = errors.New("daemon: drained")
	errCanceled  = errors.New("daemon: canceled")
	errAborted   = errors.New("daemon: aborted")
)

// attempt is what the runner hooks need to know about the attempt they
// serve.
type attempt struct {
	n     int   // attempt number, for spans, logs and diagnostics
	start int64 // tracer clock at attempt start
	ttfs  bool  // time-to-first-sample already observed
}

// observeTTFS records worker start -> the attempt's first observable sample
// (first persisted checkpoint, or completion when the run never
// checkpoints): how long a client waits before progress is visible.
func (d *Daemon) observeTTFS(a *attempt) {
	if !a.ttfs {
		a.ttfs = true
		d.obs.hists.Observe(obs.HistTTFS, d.obs.tracer.Now()-a.start)
	}
}

// runJob drives one job from its current checkpoint (if any) to a terminal
// state, a preemption/drain yield, or its retry bound. The segment loop is
// jobrun's; the daemon's part is the durability policy (checkpoint file,
// then the journal record as the commit point), the stop requests, and the
// observability around each attempt.
func (d *Daemon) runJob(j *job) {
	tenant := tenantOf(&j.spec)
	from := d.loadCheckpoint(j)

	cfg := d.opts.Config
	for _, kv := range j.spec.Sets {
		_ = cfg.Set(kv) // validated at submit
	}
	base := j.spec.BudgetCycles
	if base == 0 {
		base = d.opts.BudgetCycles
	}
	deadline := j.spec.DeadlineCycles

	var att attempt
	run := jobrun.Runner{
		Prog:            j.prog,
		Config:          cfg,
		CheckpointEvery: d.opts.CheckpointEvery,
		Monitor:         d.opts.Monitor,
		Job:             j.id,
		// Expose the system for preemption/cancel; deliver requests that
		// raced with construction.
		Started: func(sys *cycle.System) {
			d.mu.Lock()
			j.sys = sys
			if j.preemptReq || j.cancelReq || j.drainReq || d.aborted.Load() {
				sys.RequestCheckpoint()
			}
			d.mu.Unlock()
		},
		Checkpointed: func(next *checkpoint.State) error { return d.checkpointed(j, &att, next) },
	}

	for retries := 0; ; retries++ {
		budget := jobrun.Budget(base, d.opts.Backoff, retries)
		if deadline > 0 && (budget <= 0 || budget > deadline) {
			budget = deadline
		}
		// A watchdog trip retries with a wider no-retire window too: the
		// hang may have been a configuration artifact, and the budget alone
		// cannot help if the watchdog re-trips first.
		run.Config.WatchdogCycles = jobrun.Budget(cfg.WatchdogCycles, d.opts.Backoff, retries)

		d.mu.Lock()
		j.attempt++
		j.budget = budget
		resumed := from != nil
		if resumed {
			j.resumes++
		}
		att = attempt{n: j.attempt}
		d.mu.Unlock()
		att.start = d.obs.tracer.Now()
		if j.retryNs > 0 {
			d.obs.hists.Observe(obs.HistRetryBackoff, att.start-j.retryNs)
			j.retryNs = 0
		}
		if resumed {
			d.obs.tracer.Instant(j.id, tenant, "resume", att.n)
		}
		if _, err := d.appendT(Record{Kind: RecStart, ID: j.id, Attempt: att.n, Resumed: resumed}, tenant); err != nil {
			d.obs.tracer.Instant(j.id, tenant, "fail", att.n)
			d.terminal(j, StateFailed, &JobResult{Err: fmt.Sprintf("journal: %v", err)})
			return
		}
		j.log.Info("attempt started", "op", "run", "attempt", att.n,
			"budget", budget, "resumed", resumed)

		out, err := run.Attempt(from, budget)
		if out.Halted {
			d.observeTTFS(&att)
		}
		d.obs.tracer.Add(obs.Span{Job: j.id, Tenant: tenant, Name: "run",
			StartNs: att.start, DurNs: d.obs.tracer.Now() - att.start,
			Attempt: att.n, Priority: j.spec.Priority, Detail: outcomeOf(out.Halted, err)})
		// A terminal outcome is journaled, then traced and logged, and only
		// then published: terminal wakes Wait, so a job whose Wait returned
		// has its last log line written.
		switch {
		case errors.Is(err, errAborted):
			return // simulated crash: leave no clean trace
		case errors.Is(err, errCanceled):
			d.journalTerminal(j, Record{Kind: RecCancel, ID: j.id}, tenant)
			d.obs.tracer.Instant(j.id, tenant, "cancel", att.n)
			j.log.Info("canceled", "op", "run", "attempt", att.n, "cycle", out.Cycles)
			d.terminal(j, StateCanceled, &JobResult{Cycles: out.Cycles, Output: out.Output, Err: "canceled"})
			return
		case errors.Is(err, errPreempted):
			d.appendT(Record{Kind: RecPreempt, ID: j.id, Cycle: out.Cycles, Reason: "preempt"}, tenant)
			d.requeue(j)
			j.log.Info("preempted", "op", "run", "attempt", att.n, "cycle", out.Cycles)
			return
		case errors.Is(err, errDrained):
			d.appendT(Record{Kind: RecPreempt, ID: j.id, Cycle: out.Cycles, Reason: "drain"}, tenant)
			d.suspend(j)
			j.log.Info("suspended for drain", "op", "run", "attempt", att.n, "cycle", out.Cycles)
			return
		case out.Halted:
			res := &JobResult{
				Cycles:  out.Cycles,
				Instrs:  out.State.InstrCount,
				Output:  out.Output,
				MemHash: fmt.Sprintf("%016x", out.State.Digest()),
			}
			d.journalTerminal(j, Record{Kind: RecDone, ID: j.id, Result: res}, tenant)
			d.obs.tracer.Instant(j.id, tenant, "done", att.n)
			j.log.Info("done", "op", "run", "attempt", att.n,
				"cycles", res.Cycles, "instrs", res.Instrs)
			d.terminal(j, StateDone, res)
			return
		}

		// Failure or timeout: build the structured diagnostic, decide
		// whether to retry from the last checkpoint.
		final := retries >= d.opts.Retries
		var diag string
		switch {
		case err != nil:
			diag = err.Error()
		case deadline > 0 && out.Cycles >= deadline:
			diag = fmt.Sprintf("deadline_cycles %d reached at cycle %d (attempt %d)", deadline, out.Cycles, att.n)
			final = true
		default:
			diag = fmt.Sprintf("cycle budget %d exhausted at cycle %d (attempt %d)", budget, out.Cycles, att.n)
		}
		if final {
			d.journalTerminal(j, Record{Kind: RecFail, ID: j.id, Reason: diag}, tenant)
			d.obs.tracer.Instant(j.id, tenant, "fail", att.n)
			j.log.Warn("failed", "op", "run", "attempt", att.n, "err", diag)
			d.terminal(j, StateFailed, &JobResult{Cycles: out.Cycles, Output: out.Output, Err: diag})
			return
		}
		j.retryNs = d.obs.tracer.Now()
		d.mu.Lock()
		d.retries++
		d.mu.Unlock()
		j.log.Warn("attempt failed; retrying", "op", "run", "attempt", att.n, "err", diag)
		from = out.State // the last checkpoint this attempt committed
	}
}

// outcomeOf classifies one attempt's outcome for the run span's detail arg.
func outcomeOf(halted bool, err error) string {
	switch {
	case errors.Is(err, errAborted):
		return "abort"
	case errors.Is(err, errCanceled):
		return "cancel"
	case errors.Is(err, errPreempted):
		return "preempt"
	case errors.Is(err, errDrained):
		return "drain"
	case err != nil:
		return "error"
	case halted:
		return "done"
	default:
		return "timeout"
	}
}

// checkpointed is the runner's checkpoint hook: persist the checkpoint,
// commit it with the journal record, then honor a pending
// cancel/drain/preempt request by ending the attempt with its sentinel. A
// crash may land anywhere in here; every ordering is recoverable because
// the checkpoint write is atomic and the journal append is the commit point.
func (d *Daemon) checkpointed(j *job, att *attempt, next *checkpoint.State) error {
	tenant := tenantOf(&j.spec)
	if d.aborted.Load() {
		return errAborted
	}
	ckptStart := d.obs.tracer.Now()
	if err := checkpoint.SaveFile(d.ckptPath(j), next); err != nil {
		return err
	}
	ckptDur := d.obs.tracer.Now() - ckptStart
	d.obs.hists.Observe(obs.HistCkptWrite, ckptDur)
	d.obs.tracer.Add(obs.Span{Job: j.id, Tenant: tenant, Name: "checkpoint-write",
		StartNs: ckptStart, DurNs: ckptDur, Attempt: att.n})
	if d.aborted.Load() {
		return errAborted
	}
	if _, err := d.appendT(Record{Kind: RecCkpt, ID: j.id, Cycle: next.CycleOffset}, tenant); err != nil {
		return err
	}
	d.observeTTFS(att)
	j.log.Debug("checkpoint", "op", "ckpt", "attempt", att.n, "cycle", next.CycleOffset)

	d.mu.Lock()
	j.cycles = next.CycleOffset
	cancel, drain, preempt := j.cancelReq, j.drainReq, j.preemptReq
	stopping := d.stopWorkers
	d.publishLocked()
	d.mu.Unlock()
	switch {
	case cancel:
		return errCanceled
	case drain || (stopping && d.draining):
		return errDrained
	case preempt:
		return errPreempted
	}
	return nil
}
