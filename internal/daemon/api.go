// Package daemon implements xmtd, the crash-safe simulation-as-a-service
// server behind cmd/xmtd and cmd/xmtctl: a persistent multi-tenant job
// queue with priorities, per-tenant quotas, checkpoint-backed preemption, a
// durable append-only journal replayed on startup, per-job deadlines and
// no-progress watchdogs, and graceful drain — the "many small sims
// multiplexed over one warm process" direction of the roadmap, hardened the
// way docs/ROBUSTNESS.md hardens single runs (docs/XMTD.md).
package daemon

import (
	"encoding/json"
	"fmt"
)

// APIVersion tags every request and response of the line-JSON protocol:
// one JSON object per line over a unix or TCP socket.
const APIVersion = "xmt-jobs/v1"

// Error codes of the typed API errors. Overload and quota violations map to
// these — never to a dropped connection or an unbounded queue.
const (
	ErrBadRequest    = "bad_request"    // malformed request or unknown op
	ErrUnsupported   = "unsupported"    // api version mismatch
	ErrCompile       = "compile_error"  // program failed to parse/compile
	ErrQuotaExceeded = "quota_exceeded" // per-tenant quota violated
	ErrQueueFull     = "queue_full"     // global queue bound reached
	ErrDraining      = "draining"       // daemon is shutting down
	ErrNotFound      = "not_found"      // unknown job id
	ErrNotDone       = "not_done"       // result requested before completion
	ErrTimeout       = "timeout"        // wait deadline expired
	ErrInternal      = "internal"
)

// APIError is the typed error payload of a failed request.
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *APIError) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

func apiErrorf(code, format string, args ...any) *APIError {
	return &APIError{Code: code, Message: fmt.Sprintf(format, args...)}
}

// JobSpec is a job submission: the program source travels inline so clients
// need no filesystem shared with the daemon.
type JobSpec struct {
	// Name is a client-side label (not necessarily unique); Tenant scopes
	// quotas ("" = "default"). Priority orders the queue: higher runs
	// sooner, and a submission may preempt a strictly lower-priority
	// running job at its next checkpoint boundary.
	Name     string `json:"name,omitempty"`
	Tenant   string `json:"tenant,omitempty"`
	Priority int    `json:"priority,omitempty"`

	// Kind is "asm" (XMT assembly) or "xmtc" (compiled XMTC); Source is the
	// program text. Sets are per-job "key=value" machine-config overrides.
	Kind   string   `json:"kind,omitempty"`
	Source string   `json:"source"`
	Sets   []string `json:"sets,omitempty"`

	// BudgetCycles is the first attempt's cycle budget (0 = daemon
	// default); retries grow it by the daemon's backoff factor. A tenant
	// quota may cap it.
	BudgetCycles int64 `json:"budget_cycles,omitempty"`
	// DeadlineCycles, when set, is a hard per-job ceiling on simulated
	// cycles across all attempts: the job fails with a structured
	// diagnostic rather than retrying past it.
	DeadlineCycles int64 `json:"deadline_cycles,omitempty"`
}

// JobResult is the terminal outcome of a job.
type JobResult struct {
	Cycles int64  `json:"cycles"`
	Instrs uint64 `json:"instrs"`
	Output string `json:"output"`
	// MemHash fingerprints the final architectural state
	// (checkpoint.State.Digest in hex: FNV-1a over shared memory, global
	// registers and output), so clients can verify
	// recovered or preempted runs are bit-identical to uninterrupted ones
	// without shipping the memory image.
	MemHash string `json:"mem_hash,omitempty"`
	Err     string `json:"error,omitempty"`
}

// Job states reported by status/list.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// JobStatus is one job's externally visible state.
type JobStatus struct {
	ID       string `json:"id"`
	Name     string `json:"name,omitempty"`
	Tenant   string `json:"tenant"`
	Priority int    `json:"priority"`
	State    string `json:"state"`

	Attempt     int   `json:"attempt,omitempty"`
	Resumes     int   `json:"resumes,omitempty"`
	Preemptions int   `json:"preemptions,omitempty"`
	Cycles      int64 `json:"cycles,omitempty"` // progress: last checkpointed/final cycle
	Budget      int64 `json:"budget,omitempty"` // current attempt's cycle budget

	Result *JobResult `json:"result,omitempty"`
}

// Request is one line of the client→daemon stream.
type Request struct {
	API string `json:"api"`
	Op  string `json:"op"`

	ID        string   `json:"id,omitempty"`     // status, wait, cancel; logs job filter
	Tenant    string   `json:"tenant,omitempty"` // list filter
	Spec      *JobSpec `json:"spec,omitempty"`   // submit
	TimeoutMS int64    `json:"timeout_ms,omitempty"`

	// logs op: minimum level ("debug"/"info"/"warn"/"error", "" = all) and
	// record cap (0 = all buffered).
	Level string `json:"level,omitempty"`
	Max   int    `json:"max,omitempty"`
}

// Response is one line of the daemon→client stream.
type Response struct {
	OK  bool      `json:"ok"`
	Err *APIError `json:"error,omitempty"`

	ID   string      `json:"id,omitempty"`
	Job  *JobStatus  `json:"job,omitempty"`
	Jobs []JobStatus `json:"jobs,omitempty"`
	Info *Info       `json:"info,omitempty"`

	// Trace is the trace op's Chrome trace-event document (compact, one
	// line); Logs are the logs op's structured records, one JSON object
	// each, oldest first.
	Trace json.RawMessage   `json:"trace,omitempty"`
	Logs  []json.RawMessage `json:"logs,omitempty"`
}

// Info answers ping: daemon identity and live occupancy.
type Info struct {
	API        string `json:"api"`
	Config     string `json:"config"`
	Workers    int    `json:"workers"`
	QueueDepth int    `json:"queue_depth"`
	Running    int    `json:"running"`
	Draining   bool   `json:"draining"`

	Preemptions uint64 `json:"preemptions"`
	Retries     uint64 `json:"retries"`
	Recoveries  uint64 `json:"recoveries"`
	Completed   uint64 `json:"completed"`
	Failed      uint64 `json:"failed"`
	Canceled    uint64 `json:"canceled"`
}
