package daemon

import (
	"encoding/json"
	"log/slog"
	"net"
	"strings"
	"testing"
	"time"

	"xmtgo/internal/obs"
)

// spanNames collects the distinct span names recorded for one job.
func spanNames(spans []obs.Span, job string) map[string]int {
	out := make(map[string]int)
	for _, s := range spans {
		if s.Job == job {
			out[s.Name]++
		}
	}
	return out
}

// TestDaemonLifecycleObservability drives a submit → preempt → resume →
// done job and asserts the full observability surface around it: the
// lifecycle spans (queued, compile, both run attempts, checkpoint write,
// preempt, resume, done), the latency histograms, the structured log ring,
// and a Perfetto-loadable trace export (ISSUE 10 acceptance).
func TestDaemonLifecycleObservability(t *testing.T) {
	var logBuf lockedBuffer
	d := newDaemon(t, t.TempDir(), func(o *Options) {
		o.Log = &logBuf
		o.LogLevel = slog.LevelDebug
	})
	defer d.Close()

	victim := mustSubmit(t, d, &JobSpec{Name: "victim", Tenant: "alice", Source: loopSrc(longIters)})
	waitFor(t, "victim running", func() bool {
		st, _ := d.Status(victim.ID)
		return st != nil && st.State == StateRunning
	})
	urgent := mustSubmit(t, d, &JobSpec{Name: "urgent", Tenant: "bob", Priority: 10, Source: loopSrc(shortIters)})
	mustDone(t, d, urgent.ID)
	res := mustDone(t, d, victim.ID)
	if res.Output == "" {
		t.Fatalf("victim produced no output")
	}

	spans, _ := d.Tracer().Snapshot()
	vs := spanNames(spans, victim.ID)
	for _, name := range []string{"compile", "queued", "run", "checkpoint-write", "preempt", "resume", "done", "journal-append"} {
		if vs[name] == 0 {
			t.Errorf("victim %s: no %q span; got %v", victim.ID, name, vs)
		}
	}
	if vs["run"] < 2 {
		t.Errorf("victim %s: %d run spans, want >= 2 (preempted attempt + resumed attempt)", victim.ID, vs["run"])
	}
	if vs["queued"] < 2 {
		t.Errorf("victim %s: %d queued spans, want >= 2 (initial + requeue after preempt)", victim.ID, vs["queued"])
	}
	us := spanNames(spans, urgent.ID)
	for _, name := range []string{"compile", "queued", "run", "done"} {
		if us[name] == 0 {
			t.Errorf("urgent %s: no %q span; got %v", urgent.ID, name, us)
		}
	}
	// Tenant/priority args ride on the spans.
	for _, s := range spans {
		if s.Job == victim.ID && s.Tenant != "alice" {
			t.Fatalf("victim span %q has tenant %q, want alice", s.Name, s.Tenant)
		}
	}

	// The run spans' outcome details classify the preemption and completion.
	var details []string
	for _, s := range spans {
		if s.Job == victim.ID && s.Name == "run" {
			details = append(details, s.Detail)
		}
	}
	if len(details) < 2 || details[0] != "preempt" || details[len(details)-1] != "done" {
		t.Errorf("victim run details = %v, want [preempt ... done]", details)
	}

	// Histograms: every stage of this lifecycle observed at least once.
	sums := d.Hists().Summaries()
	for _, key := range []string{obs.HistQueueWait, obs.HistCompile, obs.HistTTFS,
		obs.HistCkptWrite, obs.HistJournalFsync, obs.HistPreemptRequeue} {
		if sums[key].Count == 0 {
			t.Errorf("histogram %s: count 0, want > 0", key)
		}
	}
	if n := sums[obs.HistQueueWait].Count; n < 3 {
		t.Errorf("queue_wait count = %d, want >= 3 (two submits + one requeue)", n)
	}

	// The Chrome export parses and carries the lifecycle events.
	trace, err := d.TraceJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
		} `json:"traceEvents"`
		OtherData map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(trace, &doc); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	procs := make(map[string]bool)
	for _, e := range doc.TraceEvents {
		if e.Name == "process_name" {
			procs["pid"] = true
		}
	}
	if !procs["pid"] || doc.OtherData["dropped"] != "0" {
		t.Errorf("trace export missing process metadata or dropped count: %v", doc.OtherData)
	}

	// Structured logs: JSON lines with job/tenant correlation fields, both
	// on the writer and in the ring.
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %q (%v)", line, err)
		}
	}
	if !strings.Contains(logBuf.String(), `"job":"`+victim.ID+`","tenant":"alice"`) {
		t.Errorf("log output lacks victim job/tenant fields:\n%s", logBuf.String())
	}
	victimLogs := d.LogRing().Snapshot(slog.LevelInfo, victim.ID, 0)
	if len(victimLogs) == 0 {
		t.Errorf("log ring has no info records for %s", victim.ID)
	}
	var sawPreempted bool
	for _, e := range victimLogs {
		if strings.Contains(string(e.Raw), `"msg":"preempted"`) {
			sawPreempted = true
		}
	}
	if !sawPreempted {
		t.Errorf("log ring lacks the victim's preempted record")
	}
}

// TestDaemonTraceAndLogsOps exercises the trace and logs wire ops.
func TestDaemonTraceAndLogsOps(t *testing.T) {
	dir := t.TempDir()
	d := newDaemon(t, dir, nil)
	defer d.Close()
	ln, err := net.Listen("unix", dir+"/d.sock")
	if err != nil {
		t.Fatal(err)
	}
	go d.Serve(ln)

	c, err := Dial("unix:" + dir + "/d.sock")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	st, err := c.Submit(&JobSpec{Name: "wire", Tenant: "carol", Source: loopSrc(shortIters)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(st.ID, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	trace, err := c.Trace()
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(trace, &doc); err != nil {
		t.Fatalf("trace over the wire is not valid JSON: %v", err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Fatalf("trace lacks traceEvents: %s", trace[:min(len(trace), 200)])
	}
	if !strings.Contains(string(trace), `"name":"done"`) {
		t.Errorf("wire trace lacks the done instant")
	}

	logs, err := c.Logs("info", st.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) == 0 {
		t.Fatal("logs op returned nothing")
	}
	for _, raw := range logs {
		var rec map[string]any
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatalf("log record is not JSON: %s", raw)
		}
		if rec["job"] != st.ID {
			t.Fatalf("job filter leaked: %s", raw)
		}
	}
	// Cap and level filters.
	capped, err := c.Logs("", "", 1)
	if err != nil || len(capped) != 1 {
		t.Fatalf("capped logs = %d records (%v), want 1", len(capped), err)
	}
	none, err := c.Logs("error", "", 0)
	if err != nil || len(none) != 0 {
		t.Fatalf("error-level logs = %d records (%v), want 0", len(none), err)
	}
}
