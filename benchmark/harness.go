package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// OutDir receives everything a run writes: traces, the result file and the
// daemon's data directories. It is relative to the checkout root, which
// run.sh makes the working directory.
const OutDir = "benchmark/out"

// A run sets up at least setupReps times and goes on until setupFor has been
// spent, so that a set-up of 70 ms is sampled as thoroughly as one of half a
// second. setup_s is the quiet value: neither the cold first set-up (page
// faults on the 64 MiB simulated memory, cold caches) nor a disturbed one
// decides it.
const (
	setupReps = 7
	setupFor  = 2 * time.Second
)

// workload is one set of inputs the benchmark runs. setup generates the
// inputs from the seed, builds programs, computes reference outputs and
// warms up; everything it costs is reported as setup_s.
type workload struct {
	name  string
	setup func(seed uint64, env *env) (instance, error)
}

// env is what a workload may know about the run besides its seed.
type env struct {
	dataDir string  // private scratch directory under OutDir
	seconds float64 // how long the run will measure: sizes an open-loop plan
	smoke   bool    // shrink inputs: the smoke run checks names, not speed
}

// instance is a set-up workload ready to be measured.
type instance interface {
	// measure runs checked operations for at least d. tr is nil in the
	// untraced run.
	measure(d time.Duration, tr *tracer) *phase
	// layers adds the workload's per-layer metrics to m: the ones read off
	// the traced phase's spans, and the ledger measurements made here by
	// calling each layer's public functions directly.
	layers(m Metrics, tr *tracer) error
	close() error
}

// tracePairs is how many untraced and traced stretches the traced run
// alternates; together they take 4/5 of the run's length.
const tracePairs = 4

// slices is how many consecutive stretches a measured phase is cut into.
// Throughput and CPU per operation are reported as the quiet value over the
// slices, so bursts of interference from the host's other tenants do not
// decide them as long as some of the run escapes them.
const slices = 20

// slice is one stretch of a phase: correct operations completed in it, and
// the wall and process CPU time it took.
type slice struct {
	ops       int
	wall, cpu time.Duration
}

// phase is the outcome of one measured stretch.
type phase struct {
	opMs      []float64 // wall time of each correct operation
	opInput   []int     // which of the round-robin's inputs each of them ran
	inputs    int       // size of the round-robin (1: every operation alike)
	slices    []slice
	attempted int
	failed    int
	firstErr  error
	mallocs   uint64
	allocKB   float64
	gcPauseMs float64
	gcCycles  uint32
	// open loop only: how late each submission left, and how deep the
	// daemon's queue stood just before each stretch's last submission
	lagMs       []float64
	backlogEnds []float64
}

// add appends the outcome of a further stretch q to p.
func (p *phase) add(q *phase) {
	p.opMs = append(p.opMs, q.opMs...)
	p.opInput = append(p.opInput, q.opInput...)
	p.inputs = q.inputs
	p.slices = append(p.slices, q.slices...)
	p.attempted += q.attempted
	p.failed += q.failed
	if p.firstErr == nil {
		p.firstErr = q.firstErr
	}
	p.mallocs += q.mallocs
	p.allocKB += q.allocKB
	p.gcPauseMs += q.gcPauseMs
	p.gcCycles += q.gcCycles
	p.lagMs = append(p.lagMs, q.lagMs...)
	p.backlogEnds = append(p.backlogEnds, q.backlogEnds...)
}

func (p *phase) correct() int { return p.attempted - p.failed }

// record notes a correct operation on input k that took d.
func (p *phase) record(k int, d time.Duration) {
	p.opMs = append(p.opMs, ms(d))
	p.opInput = append(p.opInput, k)
}

// opTimeMs is the quiet wall time of one operation: per input of the
// round-robin, then averaged, so that every input weighs the same.
func (p *phase) opTimeMs() float64 {
	by := make([][]float64, p.inputs)
	for i, d := range p.opMs {
		by[p.opInput[i]] = append(by[p.opInput[i]], d)
	}
	return perInput(by)
}

// opsPerS is the quiet value over the slices of correct operations per
// second.
func (p *phase) opsPerS() float64 {
	var v []float64
	for _, s := range p.slices {
		v = append(v, float64(s.ops)/s.wall.Seconds())
	}
	return quietRate(v)
}

// cpuMsPerOp is the quiet value over the slices of process CPU time per
// correct operation.
func (p *phase) cpuMsPerOp() float64 {
	var v []float64
	for _, s := range p.slices {
		if s.ops > 0 {
			v = append(v, ms(s.cpu)/float64(s.ops))
		}
	}
	return quiet(v)
}

// fail records a failed operation, keeping the first cause for the log.
func (p *phase) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// meter brackets a phase with allocator counters and cuts it into slices.
type meter struct {
	p     *phase
	start time.Time
	mem   runtime.MemStats
	// the open slice
	t0   time.Time
	cpu0 time.Duration
}

// startMeter begins a phase from a collected heap.
func startMeter(p *phase) *meter {
	m := &meter{p: p}
	runtime.GC()
	runtime.ReadMemStats(&m.mem)
	m.cpu0 = cpuTime()
	m.start = time.Now()
	m.t0 = m.start
	return m
}

// cut closes the open slice with ops correct operations.
func (m *meter) cut(ops int) {
	now, cpu := time.Now(), cpuTime()
	m.p.slices = append(m.p.slices, slice{ops, now.Sub(m.t0), cpu - m.cpu0})
	m.t0, m.cpu0 = now, cpu
}

func (m *meter) stop() {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m.p.mallocs = after.Mallocs - m.mem.Mallocs
	m.p.allocKB = float64(after.TotalAlloc-m.mem.TotalAlloc) / 1024
	m.p.gcPauseMs = float64(after.PauseTotalNs-m.mem.PauseTotalNs) / 1e6
	m.p.gcCycles = after.NumGC - m.mem.NumGC
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's maximum resident set so far (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// stackDepths is how many stack depths closedLoop rotates its operations
// through, one per pass over the inputs. The functional interpreter runs
// twice as slowly when it happens to be called at an unlucky stack offset
// (README.md, "Stack offset"), and which offset an operation gets depends
// on the frame sizes of its callers: on the binary's layout, and on where the
// runtime last moved the goroutine's stack. Left alone, that decides whole
// stretches of a run — or the whole traced path and none of the untraced one
// — by a factor of two. Rotated, every run samples the same offsets, an
// unlucky one costs one pass in stackDepths, and the quiet value ignores it.
const stackDepths = 16

// atDepth calls fn from n frames of about 100 bytes further down the stack.
//
//go:noinline
func atDepth(n int, fn func() error) error {
	if n <= 0 {
		return fn()
	}
	var pad [40]byte // read after the call, so the frame keeps it
	pad[n%len(pad)] = byte(n)
	err := atDepth(n-1, fn)
	if pad[n%len(pad)] != byte(n) {
		panic("atDepth: frame overwritten")
	}
	return err
}

// closedLoop runs op back to back — the next operation starts when the
// previous one returns, as a single tool user's would — until d has passed,
// stopping only on a multiple of stride so that a round-robin over stride
// inputs weighs each input equally.
func closedLoop(d time.Duration, stride int, op func(i int) error) *phase {
	p := &phase{inputs: stride}
	m := startMeter(p)
	inSlice := 0
	for i := 0; ; i++ {
		t0 := time.Now()
		err := atDepth(i/stride%stackDepths, func() error { return op(i) })
		dt := time.Since(t0)
		p.attempted++
		if err != nil {
			p.fail(fmt.Errorf("op %d: %w", i, err))
		} else {
			p.record(i%stride, dt)
			inSlice++
		}
		if (i+1)%stride != 0 {
			continue
		}
		elapsed := time.Since(m.start)
		if done := elapsed >= d; done || elapsed >= d*time.Duration(len(p.slices)+1)/slices {
			m.cut(inSlice)
			inSlice = 0
			if done {
				break
			}
		}
	}
	m.stop()
	return p
}

// RunOptions are the driver's arguments for one run of one workload.
type RunOptions struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	Smoke    bool
}

// RunResult is the object printed as the last line of a run.
type RunResult struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`

	// measured names the metrics the run wrote itself, as opposed to the
	// per-layer ones report filled in with 0.
	measured map[string]bool
}

// Run sets the workload up, measures it and returns the metrics the
// manifest declares: end-to-end from an untraced run, per-layer from a
// traced one.
func Run(man *Manifest, o RunOptions) (*RunResult, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == o.Workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", o.Workload)
	}
	if o.Seconds <= 0 {
		return nil, fmt.Errorf("seconds must be positive")
	}
	dataDir := filepath.Join(OutDir, fmt.Sprintf("data-%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dataDir)
	e := &env{dataDir: dataDir, seconds: o.Seconds, smoke: o.Smoke}

	once := o.Trace || o.Smoke // setup_s is end-to-end: the traced run does not report it
	var inst instance
	var setups []float64
	for start := time.Now(); ; {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, fmt.Errorf("%s: close: %w", w.name, err)
			}
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(o.Seed, e); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if once || len(setups) >= setupReps && time.Since(start) >= setupFor {
			break
		}
	}
	defer inst.close()

	d := time.Duration(o.Seconds * float64(time.Second))
	got := Metrics{}
	res := &RunResult{}
	if !o.Trace {
		p := inst.measure(d, nil)
		logFailure(w.name, p)
		res.Attempted, res.Failed = p.attempted, p.failed
		if n := p.correct(); n > 0 {
			got["setup_s"] = quiet(setups)
			got["ops_per_s"] = p.opsPerS()
			got["op_time_p10_ms"] = p.opTimeMs()
			got["cpu_ms_per_op"] = p.cpuMsPerOp()
			got["peak_rss_mb"] = peakRSSMB()
		}
	} else {
		// The traced run measures with tracing off and on in alternating
		// stretches, so that the recorder's own cost is a reported number
		// that drift on the host does not decide, and then runs the
		// per-layer ledger.
		base, traced := &phase{}, &phase{}
		tr := newTracer()
		for i := 0; i < tracePairs; i++ {
			base.add(inst.measure(d/(2*tracePairs+2), nil))
			p := inst.measure(d/(2*tracePairs+2), tr)
			tr.opBase += p.attempted
			traced.add(p)
		}
		logFailure(w.name, base)
		logFailure(w.name, traced)
		res.Attempted, res.Failed = base.attempted+traced.attempted, base.failed+traced.failed
		if err := inst.layers(got, tr); err != nil {
			return nil, fmt.Errorf("%s: layers: %w", w.name, err)
		}
		if len(base.lagMs) > 0 {
			got["loadgen.lag_p99_ms"] = quantile(base.lagMs, 0.99)
			// The median over the stretches: a backlog that grows shows at
			// the end of every stretch, a burst that happens to be queued
			// at one sampling instant does not.
			got["loadgen.backlog_end"] = median(base.backlogEnds)
		}
		got["fail_share"] = float64(res.Failed) / float64(res.Attempted)
		if n := float64(base.correct()); n > 0 {
			got["host.allocs_per_op"] = float64(base.mallocs) / n
			got["host.alloc_kb_per_op"] = base.allocKB / n
		}
		got["host.gc_pause_ms"] = base.gcPauseMs
		got["host.gc_cycles"] = float64(base.gcCycles)
		got["host.nproc"] = float64(runtime.NumCPU())
		got["host.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
		got["loadgen.samples"] = float64(len(base.opMs))
		got["loadgen.op_time_p90_ms"] = quantile(base.opMs, 0.90)
		got["loadgen.op_time_p99_ms"] = quantile(base.opMs, 0.99)
		if off := base.opTimeMs(); off > 0 {
			got["bench.trace_cost_pct"] = (traced.opTimeMs()/off - 1) * 100
		}
		if err := tr.writeChrome(filepath.Join(OutDir, "trace-"+w.name+".json")); err != nil {
			return nil, err
		}
	}
	var err error
	if res.Metrics, err = man.report(got, o.Trace); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.measured = map[string]bool{}
	for name := range got {
		res.measured[name] = true
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func logFailure(name string, p *phase) {
	if p.failed > 0 {
		fmt.Fprintf(os.Stderr, "xmtbench: %s: %d of %d operations failed; first: %v\n", name, p.failed, p.attempted, p.firstErr)
	}
}
