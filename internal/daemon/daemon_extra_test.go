package daemon

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"xmtgo/internal/jobrun"
	"xmtgo/internal/sim/checkpoint"
	"xmtgo/internal/sim/metrics"
)

func TestParseAddr(t *testing.T) {
	for _, tc := range []struct {
		in, network, address string
	}{
		{"unix:/tmp/x.sock", "unix", "/tmp/x.sock"},
		{"tcp:127.0.0.1:9901", "tcp", "127.0.0.1:9901"},
		{"127.0.0.1:9901", "tcp", "127.0.0.1:9901"},
		{":9901", "tcp", ":9901"},
	} {
		network, address := ParseAddr(tc.in)
		if network != tc.network || address != tc.address {
			t.Errorf("ParseAddr(%q) = %q, %q; want %q, %q",
				tc.in, network, address, tc.network, tc.address)
		}
	}
}

// TestDaemonCancelPaths drives every Cancel branch — queued (immediate),
// running (at the next checkpoint boundary), terminal (no-op), unknown id —
// with a Monitor and Log attached so the publish and logging paths run too.
func TestDaemonCancelPaths(t *testing.T) {
	msrv := metrics.NewServer()
	defer msrv.Close()
	d := newDaemon(t, t.TempDir(), func(o *Options) {
		o.Monitor = msrv
		o.Log = io.Discard
	})
	defer d.Close()

	long := mustSubmit(t, d, &JobSpec{Name: "long", Kind: "asm", Source: loopSrc(longIters)})
	waitFor(t, "long job running", func() bool {
		st, _ := d.Status(long.ID)
		return st != nil && st.State == StateRunning
	})

	// With the single worker busy, the second job stays queued.
	queued := mustSubmit(t, d, &JobSpec{Name: "q", Tenant: "other", Kind: "asm", Source: loopSrc(shortIters)})
	st, aerr := d.Cancel(queued.ID)
	if aerr != nil {
		t.Fatalf("cancel queued: %v", aerr)
	}
	if st.State != StateCanceled {
		t.Fatalf("queued job after cancel: state %s, want %s", st.State, StateCanceled)
	}
	// Terminal job: cancel is a no-op that just reports the state.
	if st, aerr = d.Cancel(queued.ID); aerr != nil || st.State != StateCanceled {
		t.Fatalf("cancel terminal job: state %v err %v", st, aerr)
	}
	if _, aerr = d.Cancel("nope"); aerr == nil || aerr.Code != ErrNotFound {
		t.Fatalf("cancel unknown id: got %v, want %s", aerr, ErrNotFound)
	}

	// Running job: the cancel lands at the next checkpoint boundary.
	if _, aerr = d.Cancel(long.ID); aerr != nil {
		t.Fatalf("cancel running: %v", aerr)
	}
	fin, aerr := d.Wait(long.ID, 30*time.Second)
	if aerr != nil {
		t.Fatalf("wait canceled: %v", aerr)
	}
	if fin.State != StateCanceled || fin.Result == nil || fin.Result.Err != "canceled" {
		t.Fatalf("running job after cancel: %+v", fin)
	}
	if info := d.Info(); info.Canceled != 2 {
		t.Fatalf("Info().Canceled = %d, want 2", info.Canceled)
	}
}

// TestClientCancelOverWire exercises the cancel op end to end through the
// line protocol.
func TestClientCancelOverWire(t *testing.T) {
	d := newDaemon(t, t.TempDir(), nil)
	defer d.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go d.Serve(ln)

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	long, err := c.Submit(&JobSpec{Name: "long", Kind: "asm", Source: loopSrc(longIters)})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := c.Submit(&JobSpec{Name: "q", Kind: "asm", Source: loopSrc(shortIters)})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Cancel(queued.ID)
	if err != nil {
		t.Fatalf("client cancel: %v", err)
	}
	if st.State != StateCanceled {
		t.Fatalf("canceled job state %s, want %s", st.State, StateCanceled)
	}
	if _, err := c.Cancel(long.ID); err != nil {
		t.Fatalf("client cancel running: %v", err)
	}
	fin, err := c.Wait(long.ID, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateCanceled {
		t.Fatalf("long job state %s, want %s", fin.State, StateCanceled)
	}
}

// TestDaemonRecoverDamagedHistory rebuilds a job table from hand-written
// journal records: a spec that no longer compiles must come back as failed
// (never silently requeued), and replayed fail/cancel terminals must stay
// terminal.
func TestDaemonRecoverDamagedHistory(t *testing.T) {
	dir := t.TempDir()
	jl, _, err := OpenJournal(filepath.Join(dir, "jobs.journal"))
	if err != nil {
		t.Fatal(err)
	}
	append1 := func(rec Record) {
		t.Helper()
		if _, err := jl.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	append1(Record{Kind: RecSubmit, ID: "j1", Spec: &JobSpec{Name: "bad", Kind: "asm", Source: "this is not assembly"}})
	append1(Record{Kind: RecSubmit, ID: "j2", Spec: &JobSpec{Name: "failed", Kind: "asm", Source: loopSrc(10)}})
	append1(Record{Kind: RecFail, ID: "j2", Reason: "watchdog", Result: &JobResult{Err: "watchdog", Cycles: 42}})
	append1(Record{Kind: RecSubmit, ID: "j3", Spec: &JobSpec{Name: "canceled", Kind: "asm", Source: loopSrc(10)}})
	append1(Record{Kind: RecCancel, ID: "j3"})
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	d := newDaemon(t, dir, func(o *Options) { o.Log = io.Discard })
	defer d.Close()

	for id, want := range map[string]string{
		"j1": StateFailed,
		"j2": StateFailed,
		"j3": StateCanceled,
	} {
		st, aerr := d.Status(id)
		if aerr != nil {
			t.Fatalf("status %s: %v", id, aerr)
		}
		if st.State != want {
			t.Errorf("recovered %s: state %s, want %s", id, st.State, want)
		}
	}
	if st, _ := d.Status("j2"); st.Result == nil || st.Result.Err != "watchdog" {
		t.Errorf("recovered j2 result = %+v, want the journaled failure", st.Result)
	}
	// The tampered job must never reach a worker.
	if st, _ := d.Status("j1"); st.Result == nil || st.Result.Err == "" {
		t.Errorf("recovered j1 result = %+v, want a compile diagnostic", st.Result)
	}
}

// lockedBuffer is a log sink that the test may read while workers write.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestDaemonOldEnvelopeRestarts: a data directory written by a daemon that
// kept its checkpoints in the former envelope format (a gob of the
// gob-encoded version-2 state plus the output and instruction totals) is
// recovered without resuming from that file: the interrupted job restarts
// from cycle 0, ends in the result of an uninterrupted run, and a warning
// names the file.
func TestDaemonOldEnvelopeRestarts(t *testing.T) {
	spec := JobSpec{Name: "legacy", Kind: "asm", Source: loopSrc(100_000)}
	want := refResult(t, spec)

	// A real mid-run state, saved the way the former daemon saved it.
	prog, _, err := jobrun.Load(spec.Kind, spec.Name, spec.Source)
	if err != nil {
		t.Fatal(err)
	}
	errStop := errors.New("stop")
	var first *checkpoint.State
	run := jobrun.Runner{Prog: prog, Config: testConfig(t), CheckpointEvery: 50000,
		Checkpointed: func(next *checkpoint.State) error { first = next; return errStop }}
	if _, err := run.Attempt(nil, 0); !errors.Is(err, errStop) || first == nil {
		t.Fatalf("no checkpoint to wrap: %v", err)
	}
	first.Version = 2
	var inner bytes.Buffer
	if err := checkpoint.Save(&inner, first); err != nil {
		t.Fatal(err)
	}
	type envelope struct {
		Ckpt   []byte
		Output string
		Instrs uint64
	}
	dir := t.TempDir()
	var env bytes.Buffer
	if err := gob.NewEncoder(&env).Encode(&envelope{Ckpt: inner.Bytes(), Output: first.Output, Instrs: first.InstrCount}); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, "j1.ckpt")
	if err := os.WriteFile(ckpt, env.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	jl, _, err := OpenJournal(filepath.Join(dir, "jobs.journal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []Record{
		{Kind: RecSubmit, ID: "j1", Spec: &spec},
		{Kind: RecStart, ID: "j1", Attempt: 1},
		{Kind: RecCkpt, ID: "j1", Cycle: first.CycleOffset},
	} {
		if _, err := jl.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	var log lockedBuffer
	d := newDaemon(t, dir, func(o *Options) { o.Log = &log })
	defer d.Close()
	res := mustDone(t, d, "j1")
	sameResult(t, res, want, "job recovered past an old envelope")
	if st, _ := d.Status("j1"); st.Resumes != 0 {
		t.Errorf("resumes = %d, want 0: an old envelope must not be resumed", st.Resumes)
	}
	var warned bool
	for _, line := range strings.Split(log.String(), "\n") {
		warned = warned || strings.Contains(line, `"level":"WARN"`) && strings.Contains(line, "restarting from cycle 0") && strings.Contains(line, ckpt)
	}
	if !warned {
		t.Errorf("no warning naming %s; log:\n%s", ckpt, log.String())
	}
}

// TestDaemonTenantOccupancy checks the published per-tenant occupancy
// against the running and the queued job, and that a tenant whose jobs have
// all finished keeps its row, at zero.
func TestDaemonTenantOccupancy(t *testing.T) {
	msrv := metrics.NewServer()
	defer msrv.Close()
	d := newDaemon(t, t.TempDir(), func(o *Options) {
		o.Monitor = msrv
		o.Log = io.Discard
	})
	defer d.Close()
	occupancy := func(want map[string]metrics.TenantOccupancy) func() bool {
		return func() bool {
			p := msrv.Latest()
			return p != nil && p.Status.Daemon != nil && reflect.DeepEqual(p.Status.Daemon.Tenants, want)
		}
	}

	long := mustSubmit(t, d, &JobSpec{Name: "long", Tenant: "a", Kind: "asm", Source: loopSrc(longIters)})
	waitFor(t, "long job running", func() bool {
		st, _ := d.Status(long.ID)
		return st != nil && st.State == StateRunning
	})
	queued := mustSubmit(t, d, &JobSpec{Name: "q", Tenant: "b", Kind: "asm", Source: loopSrc(shortIters)})
	waitFor(t, "a running, b queued", occupancy(map[string]metrics.TenantOccupancy{
		"a": {Running: 1}, "b": {Queued: 1}}))

	for _, id := range []string{queued.ID, long.ID} {
		if _, aerr := d.Cancel(id); aerr != nil {
			t.Fatalf("cancel %s: %v", id, aerr)
		}
	}
	if _, aerr := d.Wait(long.ID, 30*time.Second); aerr != nil {
		t.Fatal(aerr)
	}
	waitFor(t, "idle tenants at zero", occupancy(map[string]metrics.TenantOccupancy{"a": {}, "b": {}}))
}

// TestDaemonResumesCountAcrossRestarts: a job's resumes survive the daemon
// that counted them. Each drain suspends the job after a checkpoint, the
// next daemon resumes it from there, and every later daemon on the data
// directory — including one that only reads the finished job back from the
// journal — reports the resumes of all of them.
func TestDaemonResumesCountAcrossRestarts(t *testing.T) {
	spec := JobSpec{Name: "restarted", Source: loopSrc(longIters)}
	dir := t.TempDir()
	var cycles int64
	for i := 0; i < 2; i++ {
		d := newDaemon(t, dir, nil)
		if i == 0 {
			mustSubmit(t, d, &spec)
		}
		waitFor(t, "a checkpoint past the last one", func() bool {
			st, _ := d.Status("j1")
			return st != nil && st.State == StateRunning && st.Cycles > cycles
		})
		if err := d.Drain(); err != nil {
			t.Fatalf("drain %d: %v", i, err)
		}
		st, _ := d.Status("j1")
		cycles = st.Cycles
	}
	d := newDaemon(t, dir, nil)
	mustDone(t, d, "j1")
	live, _ := d.Status("j1")
	d.Close()
	d = newDaemon(t, dir, nil)
	defer d.Close()
	replayed, _ := d.Status("j1")
	if live.Resumes != 2 || replayed.Resumes != 2 || replayed.Attempt != live.Attempt {
		t.Errorf("resumes: %d when done, %d replayed (attempts %d / %d), want 2 both times",
			live.Resumes, replayed.Resumes, live.Attempt, replayed.Attempt)
	}
}

// TestDaemonPerJobSamplePeriod: a job's own sample_cycles set is its
// sampler period under a Monitor; /stream carries its samples 500 cycles
// apart, the last one a partial window ending at the job's final cycle.
func TestDaemonPerJobSamplePeriod(t *testing.T) {
	srv := metrics.NewServer()
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr + "/stream?job=j1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	samples := make(chan metrics.Sample, 64)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var s metrics.Sample
			if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok && json.Unmarshal([]byte(data), &s) == nil {
				samples <- s
			}
		}
	}()

	d := newDaemon(t, t.TempDir(), func(o *Options) { o.Monitor = srv })
	defer d.Close()
	st := mustSubmit(t, d, &JobSpec{Name: "sampled", Source: loopSrc(shortIters), Sets: []string{"sample_cycles=500"}})
	res := mustDone(t, d, st.ID)
	var prev int64
	n := 0
	for ; prev < res.Cycles; n++ {
		select {
		case s := <-samples:
			if s.Cycle < res.Cycles && (s.WindowCycles != 500 || s.Cycle != prev+500) {
				t.Fatalf("sample %d: window %d ending at cycle %d after %d, want 500-cycle windows", n, s.WindowCycles, s.Cycle, prev)
			}
			prev = s.Cycle
		case <-time.After(10 * time.Second):
			t.Fatalf("stream stopped at cycle %d of %d", prev, res.Cycles)
		}
	}
	if want := (res.Cycles + 499) / 500; int64(n) != want {
		t.Fatalf("%d samples for a %d-cycle job, want %d", n, res.Cycles, want)
	}
}
