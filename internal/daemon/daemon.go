package daemon

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"xmtgo/internal/asm"
	"xmtgo/internal/config"
	"xmtgo/internal/jobrun"
	"xmtgo/internal/obs"
	"xmtgo/internal/sim/cycle"
	"xmtgo/internal/sim/metrics"
)

// Options configures a Daemon.
type Options struct {
	// Config is the base machine configuration; per-job Sets layer on top.
	Config config.Config
	// DataDir holds the journal (jobs.journal) and the checkpoint file
	// (<id>.ckpt) of each unfinished job that has reached one. Created if
	// absent.
	DataDir string
	// Workers is the number of concurrent simulation workers (min 1).
	Workers int

	// BudgetCycles is the default first-attempt cycle budget for jobs that
	// do not set one (0 = unlimited, which disables timeout retries).
	BudgetCycles int64
	// CheckpointEvery checkpoints running jobs every N cluster cycles; it
	// also bounds preemption latency, since preemption and drain yield at
	// checkpoint boundaries (0 = only explicit requests checkpoint).
	CheckpointEvery int64
	// Retries bounds per-job retry attempts after a timeout or watchdog
	// trip; Backoff scales both the cycle budget and the watchdog window
	// between attempts (default 2).
	Retries int
	Backoff float64

	// MaxQueued bounds the global ready queue (default 256); beyond it
	// submissions fail with queue_full.
	MaxQueued int
	// TenantMaxQueued / TenantMaxRunning / TenantMaxBudget are per-tenant
	// quotas (0 = unlimited): queued jobs, concurrently running jobs, and
	// the largest per-job cycle budget a tenant may request (an unlimited
	// budget request counts as exceeding it).
	TenantMaxQueued  int
	TenantMaxRunning int
	TenantMaxBudget  int64

	// Monitor, when set, receives the daemon block on /status and per-job
	// interval samples on /stream?job=ID; the daemon also mounts its /logs
	// ring and latency-histogram series on it. SampleCycles is the sampler
	// period (0 = default).
	Monitor      *metrics.Server
	SampleCycles int64

	// Log, when set, receives the structured JSON log stream (one
	// slog record per line with job/tenant/attempt correlation fields).
	Log io.Writer
	// LogLevel is the minimum level emitted (zero value = Info; set
	// slog.LevelDebug for per-checkpoint detail).
	LogLevel slog.Level
	// TraceCapacity / LogCapacity bound the lifecycle span ring and the
	// /logs record ring (0 = obs package defaults).
	TraceCapacity int
	LogCapacity   int
}

// job is the daemon-internal job state. Mutable fields are guarded by
// Daemon.mu except where noted.
type job struct {
	id   string
	spec JobSpec
	seq  uint64 // journal seq of the submit record: FIFO tie-break
	prog *asm.Program

	heapIdx int // index in the ready heap (-1 when not queued)

	state       string
	attempt     int
	resumes     int
	preemptions int
	cycles      int64 // last checkpointed / final cycle
	budget      int64 // current attempt's budget
	result      *JobResult

	// Requests delivered to the running attempt at its next checkpoint
	// boundary.
	preemptReq, cancelReq, drainReq bool
	sys                             *cycle.System // non-nil while simulating

	// Observability clocks (host ns on the daemon tracer's epoch):
	// submittedNs anchors the queued span (set on every enqueue),
	// preemptNs the preempt span, retryNs the retry-backoff histogram.
	// Each is consumed (reset to 0) by the stage that closes its span.
	submittedNs, preemptNs, retryNs int64

	log *slog.Logger // pre-bound with job/tenant correlation fields

	done chan struct{} // closed when the job reaches a terminal state
}

// Daemon is the xmtd core: queue, workers, journal and API handlers.
type Daemon struct {
	opts Options

	jmu     sync.Mutex // serializes journal appends (fsync outside d.mu)
	journal *Journal

	mu          sync.Mutex
	cond        *sync.Cond
	queue       jobQueue
	jobs        map[string]*job
	order       []string // submission order, for list
	nextID      uint64
	running     []*job          // the jobs on a worker, at most Workers
	tenants     map[string]bool // every tenant with a job in jobs
	draining    bool
	stopWorkers bool
	ln          net.Listener

	preemptions, retries, recoveries uint64
	completed, failed, canceled      uint64

	aborted atomic.Bool // test hook: simulate a crash (no clean journaling)

	obs *obsState // lifecycle tracer, latency histograms, structured logs

	compiles sync.Map // progKey -> *asm.Program

	wg sync.WaitGroup
}

// New opens (or creates) the daemon state under opts.DataDir, replays the
// journal, re-queues every non-terminal job (jobs that were mid-run when
// the previous process died resume from their last checkpoint file),
// deletes the checkpoint files no queued job resumes from, and starts the
// worker pool.
func New(opts Options) (*Daemon, error) {
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	if opts.Backoff <= 1 {
		opts.Backoff = 2
	}
	if opts.MaxQueued <= 0 {
		opts.MaxQueued = 256
	}
	if err := os.MkdirAll(opts.DataDir, 0o755); err != nil {
		return nil, err
	}
	jl, recs, err := OpenJournal(filepath.Join(opts.DataDir, "jobs.journal"))
	if err != nil {
		return nil, err
	}

	d := &Daemon{
		opts:    opts,
		journal: jl,
		jobs:    make(map[string]*job),
		tenants: make(map[string]bool),
	}
	d.obs = newObsState(&opts)
	d.cond = sync.NewCond(&d.mu)
	if err := d.recover(recs); err != nil {
		jl.Close()
		return nil, err
	}
	d.sweepCheckpoints()
	if opts.Monitor != nil {
		opts.Monitor.SetPromExtra(d.renderPromObs)
		opts.Monitor.Handle("/logs", d.obs.ring)
	}

	for i := 0; i < opts.Workers; i++ {
		d.wg.Add(1)
		go d.worker()
	}
	d.mu.Lock()
	d.publishLocked()
	d.mu.Unlock()
	return d, nil
}

// recover rebuilds the job table from journal records and re-queues
// unfinished work.
func (d *Daemon) recover(recs []Record) error {
	interrupted := make(map[string]bool) // running (not cleanly suspended) at crash
	for _, rec := range recs {
		j := d.jobs[rec.ID]
		switch rec.Kind {
		case RecSubmit:
			if rec.Spec == nil {
				return fmt.Errorf("daemon: journal: submit %s without spec", rec.ID)
			}
			j = &job{
				id:      rec.ID,
				spec:    *rec.Spec,
				seq:     rec.Seq,
				heapIdx: -1,
				state:   StateQueued,
				done:    make(chan struct{}),
			}
			j.log = d.obs.log.With("job", j.id, "tenant", tenantOf(&j.spec))
			d.jobs[rec.ID] = j
			d.tenants[tenantOf(&j.spec)] = true
			d.order = append(d.order, rec.ID)
			var n uint64
			if _, err := fmt.Sscanf(rec.ID, "j%d", &n); err == nil && n > d.nextID {
				d.nextID = n
			}
		case RecStart:
			if j != nil {
				j.attempt = rec.Attempt
				interrupted[j.id] = true
			}
		case RecCkpt:
			if j != nil {
				j.cycles = rec.Cycle
			}
		case RecPreempt:
			if j != nil {
				interrupted[j.id] = false
				if rec.Reason == "preempt" {
					j.preemptions++
				}
			}
		case RecDone:
			if j != nil {
				j.state, j.result = StateDone, rec.Result
				interrupted[j.id] = false
				close(j.done)
			}
		case RecFail:
			if j != nil {
				j.state = StateFailed
				j.result = &JobResult{Err: rec.Reason}
				if rec.Result != nil {
					j.result = rec.Result
				}
				interrupted[j.id] = false
				close(j.done)
			}
		case RecCancel:
			if j != nil {
				j.state = StateCanceled
				j.result = &JobResult{Err: "canceled"}
				interrupted[j.id] = false
				close(j.done)
			}
		case RecDrain:
			// Clean shutdown marker; nothing per-job to do.
		}
	}

	for _, id := range d.order {
		j := d.jobs[id]
		if j.state != StateQueued {
			continue
		}
		prog, aerr := d.compile(&j.spec)
		if aerr != nil {
			// The spec compiled at submit time; failing here means the
			// journal was tampered with or the toolchain changed.
			j.state = StateFailed
			j.result = &JobResult{Err: aerr.Error()}
			close(j.done)
			d.failed++
			continue
		}
		j.prog = prog
		if interrupted[id] {
			d.recoveries++
			d.obs.tracer.Instant(id, tenantOf(&j.spec), "recovered", j.attempt)
			j.log.Info("recovered from journal", "op", "recover",
				"attempt", j.attempt, "cycle", j.cycles)
		}
		j.submittedNs = d.obs.tracer.Now()
		d.queue.push(j)
	}
	return nil
}

// appendT journals one record (fsync included), timing it into the
// journal_fsync histogram and a journal-append span. tenant may be ""
// for records without one (the span then lands on the daemon pid).
func (d *Daemon) appendT(rec Record, tenant string) (uint64, error) {
	start := d.obs.tracer.Now()
	d.jmu.Lock()
	if d.journal == nil {
		d.jmu.Unlock()
		return 0, errors.New("daemon: journal closed")
	}
	seq, err := d.journal.Append(rec)
	d.jmu.Unlock()
	dur := d.obs.tracer.Now() - start
	d.obs.hists.Observe(obs.HistJournalFsync, dur)
	d.obs.tracer.Add(obs.Span{Job: rec.ID, Tenant: tenant, Name: "journal-append",
		StartNs: start, DurNs: dur, Detail: rec.Kind})
	return seq, err
}

func tenantOf(spec *JobSpec) string {
	if spec.Tenant == "" {
		return "default"
	}
	return spec.Tenant
}

// progKey keys the program cache on the kind and source themselves, so two
// tenants share a program only when their submissions are byte-identical.
type progKey struct{ kind, source string }

// compile builds (or fetches from cache) the program for a spec.
func (d *Daemon) compile(spec *JobSpec) (*asm.Program, *APIError) {
	key := progKey{spec.Kind, spec.Source}
	if p, ok := d.compiles.Load(key); ok {
		return p.(*asm.Program), nil
	}
	prog, _, err := jobrun.Load(spec.Kind, spec.Name, spec.Source)
	if errors.Is(err, jobrun.ErrKind) {
		return nil, apiErrorf(ErrBadRequest, "%v", err)
	}
	if err != nil {
		return nil, apiErrorf(ErrCompile, "%v", err)
	}
	d.compiles.Store(key, prog)
	return prog, nil
}

// Submit validates, journals and enqueues a job. It performs admission
// control: draining, queue bounds and tenant quotas map to typed errors. A
// successful return means the job is durably journaled — it survives
// kill -9 from this point on.
func (d *Daemon) Submit(spec *JobSpec) (*JobStatus, *APIError) {
	if spec == nil || spec.Source == "" {
		return nil, apiErrorf(ErrBadRequest, "submit needs spec.source")
	}
	cfg := d.opts.Config
	for _, kv := range spec.Sets {
		if err := cfg.Set(kv); err != nil {
			return nil, apiErrorf(ErrBadRequest, "%v", err)
		}
	}
	if err := cfg.Validate(); err != nil {
		return nil, apiErrorf(ErrBadRequest, "%v", err)
	}
	tenant := tenantOf(spec)
	compileStart := d.obs.tracer.Now()
	prog, aerr := d.compile(spec)
	compileDur := d.obs.tracer.Now() - compileStart
	if aerr != nil {
		d.obs.log.Warn("compile failed", "op", "submit", "tenant", tenant,
			"name", spec.Name, "err", aerr.Message)
		return nil, aerr
	}
	d.obs.hists.Observe(obs.HistCompile, compileDur)

	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		return nil, apiErrorf(ErrDraining, "daemon is draining; not accepting jobs")
	}
	if d.queue.Len() >= d.opts.MaxQueued {
		d.mu.Unlock()
		return nil, apiErrorf(ErrQueueFull, "ready queue full (%d jobs)", d.opts.MaxQueued)
	}
	if q := d.opts.TenantMaxQueued; q > 0 {
		queued := 0
		for _, other := range d.queue.items {
			if tenantOf(&other.spec) == tenant {
				queued++
			}
		}
		if queued >= q {
			d.mu.Unlock()
			return nil, apiErrorf(ErrQuotaExceeded, "tenant %s: %d jobs already queued (max %d)", tenant, queued, q)
		}
	}
	if cap := d.opts.TenantMaxBudget; cap > 0 {
		if spec.BudgetCycles <= 0 || spec.BudgetCycles > cap {
			d.mu.Unlock()
			return nil, apiErrorf(ErrQuotaExceeded, "tenant %s: budget_cycles %d exceeds quota %d (unlimited counts as exceeding)",
				tenant, spec.BudgetCycles, cap)
		}
	}
	d.nextID++
	id := fmt.Sprintf("j%d", d.nextID)
	d.mu.Unlock()

	// The compile span carries the job id, so it is emitted only now that
	// the id exists (the measured start/duration are unaffected).
	d.obs.tracer.Add(obs.Span{Job: id, Tenant: tenant, Name: "compile",
		StartNs: compileStart, DurNs: compileDur, Priority: spec.Priority})

	// Journal before exposing the job: once acknowledged, it is durable.
	seq, err := d.appendT(Record{Kind: RecSubmit, ID: id, Spec: spec}, tenant)
	if err != nil {
		return nil, apiErrorf(ErrInternal, "journal: %v", err)
	}

	d.mu.Lock()
	j := &job{
		id:      id,
		spec:    *spec,
		seq:     seq,
		prog:    prog,
		heapIdx: -1,
		state:   StateQueued,
		done:    make(chan struct{}),
	}
	j.log = d.obs.log.With("job", id, "tenant", tenant)
	j.submittedNs = d.obs.tracer.Now()
	d.jobs[id] = j
	d.tenants[tenant] = true
	d.order = append(d.order, id)
	d.queue.push(j)
	d.maybePreemptLocked(j)
	d.cond.Signal()
	d.publishLocked()
	st := statusOf(j)
	d.mu.Unlock()
	j.log.Info("queued", "op", "submit", "priority", spec.Priority,
		"kind", spec.Kind, "name", spec.Name)
	return st, nil
}

// maybePreemptLocked asks the lowest-priority running job to yield when a
// strictly higher-priority submission arrives and no worker is free. The
// victim checkpoints at its next quiescent boundary and re-enters the queue
// with its original position; the resumed run is bit-identical.
func (d *Daemon) maybePreemptLocked(newJob *job) {
	if len(d.running) < d.opts.Workers {
		return // a free worker will pick the new job up
	}
	var victim *job
	for _, j := range d.running {
		if j.preemptReq || j.cancelReq || j.drainReq {
			continue
		}
		if j.spec.Priority >= newJob.spec.Priority {
			continue
		}
		if victim == nil || j.spec.Priority < victim.spec.Priority ||
			(j.spec.Priority == victim.spec.Priority && j.seq > victim.seq) {
			victim = j
		}
	}
	if victim == nil {
		return
	}
	victim.preemptReq = true
	victim.preemptNs = d.obs.tracer.Now()
	if victim.sys != nil {
		victim.sys.RequestCheckpoint()
	}
	victim.log.Info("preempting", "op", "preempt", "for", newJob.id,
		"new_priority", newJob.spec.Priority, "priority", victim.spec.Priority)
}

// Status returns a job's externally visible state.
func (d *Daemon) Status(id string) (*JobStatus, *APIError) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j := d.jobs[id]
	if j == nil {
		return nil, apiErrorf(ErrNotFound, "no job %s", id)
	}
	return statusOf(j), nil
}

// List returns every job (optionally one tenant's) in submission order.
func (d *Daemon) List(tenant string) []JobStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]JobStatus, 0, len(d.order))
	for _, id := range d.order {
		j := d.jobs[id]
		if tenant != "" && tenantOf(&j.spec) != tenant {
			continue
		}
		out = append(out, *statusOf(j))
	}
	return out
}

// Wait blocks until the job reaches a terminal state or the timeout
// expires.
func (d *Daemon) Wait(id string, timeout time.Duration) (*JobStatus, *APIError) {
	d.mu.Lock()
	j := d.jobs[id]
	d.mu.Unlock()
	if j == nil {
		return nil, apiErrorf(ErrNotFound, "no job %s", id)
	}
	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case <-j.done:
	case <-timer:
		return nil, apiErrorf(ErrTimeout, "job %s not done after %v", id, timeout)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return statusOf(j), nil
}

// Cancel cancels a queued job immediately, or asks a running job to stop at
// its next checkpoint boundary.
func (d *Daemon) Cancel(id string) (*JobStatus, *APIError) {
	d.mu.Lock()
	j := d.jobs[id]
	if j == nil {
		d.mu.Unlock()
		return nil, apiErrorf(ErrNotFound, "no job %s", id)
	}
	switch j.state {
	case StateQueued:
		d.queue.remove(j)
		j.state = StateCanceled
		j.result = &JobResult{Err: "canceled"}
		d.canceled++
		close(j.done)
		d.publishLocked()
		d.mu.Unlock()
		// Journal after the state flip: a crash in between re-queues the
		// job once, and the cancel is simply lost — never a double-run.
		d.journalTerminal(j, Record{Kind: RecCancel, ID: id}, tenantOf(&j.spec))
		d.obs.tracer.Instant(id, tenantOf(&j.spec), "cancel", j.attempt)
		j.log.Info("canceled while queued", "op", "cancel")
		d.mu.Lock()
	case StateRunning:
		j.cancelReq = true
		if j.sys != nil {
			j.sys.RequestCheckpoint()
		}
	}
	defer d.mu.Unlock()
	return statusOf(j), nil
}

// Info returns the ping payload.
func (d *Daemon) Info() *Info {
	d.mu.Lock()
	defer d.mu.Unlock()
	return &Info{
		API:        APIVersion,
		Config:     d.opts.Config.Name,
		Workers:    d.opts.Workers,
		QueueDepth: d.queue.Len(),
		Running:    len(d.running),
		Draining:   d.draining,

		Preemptions: d.preemptions,
		Retries:     d.retries,
		Recoveries:  d.recoveries,
		Completed:   d.completed,
		Failed:      d.failed,
		Canceled:    d.canceled,
	}
}

func statusOf(j *job) *JobStatus {
	st := &JobStatus{
		ID:          j.id,
		Name:        j.spec.Name,
		Tenant:      tenantOf(&j.spec),
		Priority:    j.spec.Priority,
		State:       j.state,
		Attempt:     j.attempt,
		Resumes:     j.resumes,
		Preemptions: j.preemptions,
		Cycles:      j.cycles,
		Budget:      j.budget,
		Result:      j.result,
	}
	return st
}

// publishLocked pushes the daemon block to the metrics server. Caller holds
// d.mu.
func (d *Daemon) publishLocked() {
	if d.opts.Monitor == nil {
		return
	}
	ds := metrics.DaemonStatus{
		QueueDepth: d.queue.Len(),
		Running:    len(d.running),
		Workers:    d.opts.Workers,
		Draining:   d.draining,

		Preemptions: d.preemptions,
		Retries:     d.retries,
		Recoveries:  d.recoveries,
		Completed:   d.completed,
		Failed:      d.failed,
		Canceled:    d.canceled,

		Latencies:  d.obs.hists.Summaries(),
		LogDropped: d.obs.ring.Dropped(),
	}
	ds.TraceSpans, ds.TraceDropped = d.obs.tracer.Stats()
	// Every tenant the daemon has had keeps a row, at zero when idle.
	ds.Tenants = make(map[string]metrics.TenantOccupancy, len(d.tenants))
	for t := range d.tenants {
		ds.Tenants[t] = metrics.TenantOccupancy{}
	}
	for _, j := range d.queue.items {
		occ := ds.Tenants[tenantOf(&j.spec)]
		occ.Queued++
		ds.Tenants[tenantOf(&j.spec)] = occ
	}
	for _, j := range d.running {
		occ := ds.Tenants[tenantOf(&j.spec)]
		occ.Running++
		ds.Tenants[tenantOf(&j.spec)] = occ
	}
	d.opts.Monitor.PublishDaemon(ds)
}

// worker is one simulation worker: pull the highest-priority eligible job,
// run it to a terminal state or a yield point, repeat.
func (d *Daemon) worker() {
	defer d.wg.Done()
	for {
		j := d.nextJob()
		if j == nil {
			return
		}
		d.runJob(j)
	}
}

// nextJob blocks until a job is eligible (tenant running-quota respected) or
// the daemon stops dispatching.
func (d *Daemon) nextJob() *job {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.stopWorkers {
			return nil
		}
		var skipped []*job
		var pick *job
		for !d.queue.empty() {
			j := d.queue.pop()
			if q := d.opts.TenantMaxRunning; q > 0 && d.runningOf(tenantOf(&j.spec)) >= q {
				skipped = append(skipped, j)
				continue
			}
			pick = j
			break
		}
		for _, s := range skipped {
			d.queue.push(s)
		}
		if pick != nil {
			pick.state = StateRunning
			d.running = append(d.running, pick)
			if pick.submittedNs > 0 {
				wait := d.obs.tracer.Now() - pick.submittedNs
				d.obs.hists.Observe(obs.HistQueueWait, wait)
				d.obs.tracer.Add(obs.Span{Job: pick.id, Tenant: tenantOf(&pick.spec),
					Name: "queued", StartNs: pick.submittedNs, DurNs: wait,
					Priority: pick.spec.Priority})
				pick.submittedNs = 0
			}
			d.publishLocked()
			return pick
		}
		d.cond.Wait()
	}
}

// runningOf counts the tenant's jobs on a worker.
func (d *Daemon) runningOf(tenant string) int {
	n := 0
	for _, j := range d.running {
		if tenantOf(&j.spec) == tenant {
			n++
		}
	}
	return n
}

// release takes a job off a worker: clears the running accounting. Caller
// then either re-queues it (yield) or marks it terminal.
func (d *Daemon) releaseLocked(j *job) {
	i := slices.Index(d.running, j)
	d.running = slices.Delete(d.running, i, i+1)
	j.sys = nil
	// Completion may unblock a tenant at its running quota.
	d.cond.Broadcast()
}

// terminal flips a job into a terminal state and wakes waiters.
func (d *Daemon) terminal(j *job, state string, result *JobResult) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.releaseLocked(j)
	j.state = state
	j.result = result
	if result != nil {
		j.cycles = result.Cycles
	}
	switch state {
	case StateDone:
		d.completed++
	case StateFailed:
		d.failed++
	case StateCanceled:
		d.canceled++
	}
	close(j.done)
	d.publishLocked()
}

// requeue returns a preempted job to the ready queue with its original
// enqueue sequence.
func (d *Daemon) requeue(j *job) {
	now := d.obs.tracer.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.releaseLocked(j)
	j.state = StateQueued
	j.preemptReq = false
	j.preemptions++
	d.preemptions++
	if j.preemptNs > 0 {
		// The preempt span covers request -> back in queue: the daemon's
		// preemption turnaround (bounded by CheckpointEvery).
		d.obs.hists.Observe(obs.HistPreemptRequeue, now-j.preemptNs)
		d.obs.tracer.Add(obs.Span{Job: j.id, Tenant: tenantOf(&j.spec),
			Name: "preempt", StartNs: j.preemptNs, DurNs: now - j.preemptNs,
			Attempt: j.attempt, Priority: j.spec.Priority})
		j.preemptNs = 0
	}
	j.submittedNs = now
	d.queue.push(j)
	d.cond.Signal()
	d.publishLocked()
}

// suspend parks a job cleanly during drain: it stays queued (and journaled
// as such) so the next daemon on this data dir resumes it from its
// checkpoint. Zero lost jobs.
func (d *Daemon) suspend(j *job) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.releaseLocked(j)
	j.state = StateQueued
	j.drainReq = false
	j.submittedNs = d.obs.tracer.Now()
	d.queue.push(j)
	d.publishLocked()
}

// Serve accepts connections on ln and speaks the xmt-jobs/v1 line protocol
// until the listener closes (drain or Close).
func (d *Daemon) Serve(ln net.Listener) error {
	d.mu.Lock()
	d.ln = ln
	d.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			d.mu.Lock()
			stopping := d.draining || d.stopWorkers
			d.mu.Unlock()
			if stopping {
				return nil
			}
			return err
		}
		go d.handleConn(conn)
	}
}

// stopWorkersLocked stops the workers taking jobs and asks every running job
// to checkpoint at its next quiescent boundary. With drain the job is marked
// so that its worker journals a clean suspend; without (Abort's simulated
// crash) the worker journals nothing. The caller holds d.mu.
func (d *Daemon) stopWorkersLocked(drain bool) {
	d.stopWorkers = true
	for _, j := range d.running {
		if drain {
			j.drainReq = true
		}
		if j.sys != nil {
			j.sys.RequestCheckpoint()
		}
	}
	d.cond.Broadcast()
}

// Drain performs the graceful shutdown: stop admitting, suspend running
// jobs at their next checkpoint boundary, journal the clean-shutdown
// marker, close the journal. Queued and suspended jobs remain durably
// journaled for the next daemon on this data dir. Idempotent.
func (d *Daemon) Drain() error {
	d.mu.Lock()
	already := d.draining
	d.draining = true
	d.stopWorkersLocked(true)
	d.publishLocked()
	d.mu.Unlock()

	d.wg.Wait()
	if already {
		return nil
	}
	var err error
	d.jmu.Lock()
	if d.journal != nil {
		_, err = d.journal.Append(Record{Kind: RecDrain})
		if cerr := d.journal.Close(); err == nil {
			err = cerr
		}
		d.journal = nil
	}
	d.jmu.Unlock()
	d.mu.Lock()
	d.publishLocked()
	d.mu.Unlock()
	d.obs.log.Info("drained", "op", "drain")
	return err
}

// Abort simulates a crash for recovery tests: workers stop at their next
// checkpoint boundary without journaling any clean suspend/terminal
// records, and the journal file is closed as-is — exactly the on-disk state
// a kill -9 would leave (appends are fsync'd individually). Not part of the
// public protocol.
func (d *Daemon) Abort() {
	d.aborted.Store(true)
	d.mu.Lock()
	d.stopWorkersLocked(false)
	if d.ln != nil {
		d.ln.Close()
	}
	d.mu.Unlock()
	d.wg.Wait()
	d.jmu.Lock()
	if d.journal != nil {
		d.journal.f.Close() // no flush beyond the already-fsync'd appends
		d.journal = nil
	}
	d.jmu.Unlock()
}

// Close shuts the daemon down without the drain protocol (used on fatal
// errors). Prefer Drain for orderly shutdown.
func (d *Daemon) Close() error {
	d.mu.Lock()
	d.draining = true
	d.stopWorkersLocked(true)
	if d.ln != nil {
		d.ln.Close()
	}
	d.mu.Unlock()
	d.wg.Wait()
	d.jmu.Lock()
	defer d.jmu.Unlock()
	if d.journal != nil {
		err := d.journal.Close()
		d.journal = nil
		return err
	}
	return nil
}

// CloseListener stops the accept loop (the drain API op uses it after
// responding).
func (d *Daemon) CloseListener() {
	d.mu.Lock()
	if d.ln != nil {
		d.ln.Close()
	}
	d.mu.Unlock()
}
