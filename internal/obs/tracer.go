package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"xmtgo/internal/sim/trace"
)

// Span is one timed (or instant) lifecycle event of a service-layer job.
// Times are host-monotonic nanoseconds since the tracer's epoch.
type Span struct {
	Job     string `json:"job,omitempty"`
	Tenant  string `json:"tenant,omitempty"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`

	Attempt  int    `json:"attempt,omitempty"`
	Priority int    `json:"priority,omitempty"`
	Detail   string `json:"detail,omitempty"`
	Instant  bool   `json:"instant,omitempty"`
}

// Tracer records lifecycle spans into a bounded ring: when the ring fills,
// the oldest spans are evicted (and counted), so a snapshot always holds the
// most recent window of daemon activity and truncation is never silent.
type Tracer struct {
	mu      sync.Mutex
	nowFn   func() int64
	buf     []Span
	next    int
	full    bool
	dropped uint64
}

// DefaultTraceCapacity is the span-ring bound used when none is given.
const DefaultTraceCapacity = 16384

// NewTracer creates a tracer holding up to capacity spans (<=0 selects
// DefaultTraceCapacity). The clock starts at zero at creation.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	epoch := time.Now()
	return &Tracer{
		nowFn: func() int64 { return time.Since(epoch).Nanoseconds() },
		buf:   make([]Span, capacity),
	}
}

// SetNowFunc replaces the clock (tests inject a deterministic one).
func (t *Tracer) SetNowFunc(f func() int64) {
	t.mu.Lock()
	t.nowFn = f
	t.mu.Unlock()
}

// Now returns nanoseconds since the tracer's epoch.
func (t *Tracer) Now() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nowFn()
}

// Add records one completed span (the caller supplies StartNs and DurNs from
// Now). Safe for concurrent use.
func (t *Tracer) Add(s Span) {
	t.mu.Lock()
	if t.full {
		t.dropped++
	}
	t.buf[t.next] = s
	t.next++
	if t.next == len(t.buf) {
		t.next, t.full = 0, true
	}
	t.mu.Unlock()
}

// Instant records a zero-duration marker event at the current time.
func (t *Tracer) Instant(job, tenant, name string, attempt int) {
	t.mu.Lock()
	now := t.nowFn()
	if t.full {
		t.dropped++
	}
	t.buf[t.next] = Span{Job: job, Tenant: tenant, Name: name, StartNs: now, Attempt: attempt, Instant: true}
	t.next++
	if t.next == len(t.buf) {
		t.next, t.full = 0, true
	}
	t.mu.Unlock()
}

// Snapshot copies the buffered spans (oldest first) and the eviction count.
func (t *Tracer) Snapshot() ([]Span, uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Span
	if t.full {
		out = make([]Span, 0, len(t.buf))
		out = append(out, t.buf[t.next:]...)
		out = append(out, t.buf[:t.next]...)
	} else {
		out = append(out, t.buf[:t.next]...)
	}
	return out, t.dropped
}

// Stats reports the buffered span count and the eviction count.
func (t *Tracer) Stats() (spans int, dropped uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.full {
		return len(t.buf), t.dropped
	}
	return t.next, t.dropped
}

// WriteChrome snapshots the ring and renders it as Chrome trace-event JSON.
func (t *Tracer) WriteChrome(w io.Writer) error {
	spans, dropped := t.Snapshot()
	return WriteChrome(w, spans, dropped)
}

// jobTid maps a job id ("j42") to a Chrome thread id: its trailing decimal
// digits. Spans without a job id (daemon-internal work) land on tid 0.
func jobTid(job string) int {
	n, seen := 0, false
	for i := 0; i < len(job); i++ {
		c := job[i]
		if c >= '0' && c <= '9' {
			n, seen = n*10+int(c-'0'), true
		} else {
			n, seen = 0, false
		}
	}
	if !seen {
		return 0
	}
	return n
}

// WriteChrome renders spans as Chrome trace-event JSON ("traceEvents" array
// format), loadable in Perfetto alongside the simulator's cycle traces:
// pid 0 is the daemon itself, each tenant gets its own pid (first-appearance
// order), and each job is one tid inside its tenant's process. Timestamps
// are host nanoseconds rendered as fractional microseconds. Formatting is
// fixed, so the output is a pure function of the span list.
func WriteChrome(w io.Writer, spans []Span, dropped uint64) error {
	enc := trace.NewChromeEncoder(w)

	// pid 0 = daemon-internal spans (no tenant); tenants follow in order of
	// first appearance so the mapping is a pure function of the span list.
	pids := map[string]int{"": 0}
	order := []string{""}
	type thread struct {
		pid, tid int
	}
	threads := map[thread]string{}
	var threadOrder []thread
	for _, s := range spans {
		if _, ok := pids[s.Tenant]; !ok {
			pids[s.Tenant] = len(order)
			order = append(order, s.Tenant)
		}
		th := thread{pids[s.Tenant], jobTid(s.Job)}
		if _, ok := threads[th]; !ok {
			name := s.Job
			if name == "" {
				name = "daemon"
			}
			threads[th] = name
			threadOrder = append(threadOrder, th)
		}
	}
	for pid, tenant := range order {
		name := tenant
		if pid == 0 {
			name = "xmtd"
		}
		enc.Event(`{"name":"process_name","ph":"M","pid":%d,"args":{"name":%q}}`, pid, name)
	}
	sort.Slice(threadOrder, func(i, k int) bool {
		if threadOrder[i].pid != threadOrder[k].pid {
			return threadOrder[i].pid < threadOrder[k].pid
		}
		return threadOrder[i].tid < threadOrder[k].tid
	})
	for _, th := range threadOrder {
		enc.Event(`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%q}}`,
			th.pid, th.tid, threads[th])
	}

	for i := range spans {
		s := &spans[i]
		pid, tid := pids[s.Tenant], jobTid(s.Job)
		args := fmt.Sprintf(`"job":%q,"tenant":%q`, s.Job, s.Tenant)
		if s.Attempt > 0 {
			args += fmt.Sprintf(`,"attempt":%d`, s.Attempt)
		}
		if s.Priority != 0 {
			args += fmt.Sprintf(`,"priority":%d`, s.Priority)
		}
		if s.Detail != "" {
			args += fmt.Sprintf(`,"detail":%q`, s.Detail)
		}
		if s.Instant {
			enc.Event(`{"name":%q,"cat":"lifecycle","ph":"i","ts":%s,"pid":%d,"tid":%d,"s":"t","args":{%s}}`,
				s.Name, usec(s.StartNs), pid, tid, args)
			continue
		}
		enc.Event(`{"name":%q,"cat":"lifecycle","ph":"X","ts":%s,"dur":%s,"pid":%d,"tid":%d,"args":{%s}}`,
			s.Name, usec(s.StartNs), usec(s.DurNs), pid, tid, args)
	}
	return enc.Close(dropped)
}

// usec renders nanoseconds as microseconds with nanosecond precision
// (Chrome trace timestamps are microseconds; fractional values are legal).
func usec(ns int64) string {
	neg := ""
	if ns < 0 {
		neg, ns = "-", -ns
	}
	return fmt.Sprintf("%s%d.%03d", neg, ns/1000, ns%1000)
}
