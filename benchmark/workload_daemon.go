package bench

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"xmtgo"
	"xmtgo/internal/atomicfile"
	"xmtgo/internal/config"
	"xmtgo/internal/daemon"
	"xmtgo/internal/obs"
	"xmtgo/internal/prng"
	"xmtgo/internal/sim/funcmodel"
	wl "xmtgo/internal/workloads"
)

// The open-loop load of daemon-open. Jobs are due at a fixed rate for the
// whole run whether or not earlier ones have finished — independent users,
// not callers waiting on replies — and an operation's time runs from the
// instant the job was due, so a stall is charged to every job it delays.
// 100 jobs/s is about a fifth of the burst capacity measured on the 2-core
// reference host: well below saturation, where latency is the early signal
// of a slower layer and a growing backlog the late one.
const (
	daemonRate      = 100 // jobs per second
	daemonMemBytes  = 1 << 20
	daemonCkptEvery = 50_000 // cluster cycles between checkpoints
	// longIters makes a job of about 300k cycles: at least five checkpoint
	// boundaries, so envelopes are written and it can be preempted.
	longIters  = 100_000
	shortIters = 2000 // about 6k cycles
)

// The mix, in percent of all jobs; the rest are short jobs from 8 shared
// assembly sources, which hit the program cache.
const (
	pctLong   = 2  // long asm job crossing checkpoint boundaries
	pctXMTC   = 10 // XMTC compaction kernel, one of 4 sources
	pctUnique = 20 // asm source never seen before: a cache miss
)

// loopSrc is a serial assembly job that counts to iters, stores and prints
// the count.
func loopSrc(iters int) string {
	return fmt.Sprintf(`
        .data
A:      .space 64
        .text
        .global main
main:
        li    $t0, %d
        li    $t2, 0
Lloop:  addiu $t2, $t2, 1
        addiu $t0, $t0, -1
        bne   $t0, $zero, Lloop
        la    $t1, A
        sw    $t2, 0($t1)
        lw    $v0, 0($t1)
        sys   1
        sys   0
`, iters)
}

// jobRef is what a correct run of one source must return. Serial assembly
// jobs are checked on output, instruction count and the daemon's memory
// hash against a functional-mode run; the compaction kernels on output
// alone, because the order in which ps hands out slots — and so the final
// memory — legitimately differs between cycle and functional mode.
type jobRef struct {
	output  string
	instrs  uint64
	memHash string
	full    bool
}

type plannedJob struct {
	spec daemon.JobSpec
	ref  *jobRef
}

type daemonInstance struct {
	d     *daemon.Daemon
	dir   string
	plan  []plannedJob
	next  int // first job of the plan not yet submitted
	warm  map[string]obs.HistSummary
	warmI *daemon.Info
}

func setupDaemon(seed uint64, e *env) (instance, error) {
	cfg, err := config.Preset("fpga64")
	if err != nil {
		return nil, err
	}
	cfg.MemBytes = daemonMemBytes
	rng := prng.New(seed)

	refs := map[string]*jobRef{}
	asmJob := func(name string, iters int) (plannedJob, error) {
		src := loopSrc(iters)
		ref, ok := refs[src]
		if !ok {
			prog, err := xmtgo.Assemble(name+".s", src)
			if err != nil {
				return plannedJob{}, err
			}
			if ref, err = daemonRef(prog, cfg.MemBytes); err != nil {
				return plannedJob{}, err
			}
			if ref.output != fmt.Sprint(iters) {
				return plannedJob{}, fmt.Errorf("%s: functional reference printed %q, want %d", name, ref.output, iters)
			}
			refs[src] = ref
		}
		return plannedJob{daemon.JobSpec{Name: name, Kind: "asm", Source: src}, ref}, nil
	}

	// The plan is built one second's worth (daemonRate jobs) at a time: each
	// block holds the exact share of every kind, priority and tenant, and
	// the seed shuffles which job lands in which slot. Every seed therefore
	// offers the same work in a different interleaving, and every second of
	// the run offers the same work as any other.
	n := int(float64(daemonRate) * e.seconds)
	if n < 20 {
		n = 20
	}
	var xmtc []plannedJob
	for i := 0; i < 4; i++ {
		src, nonZeros := wl.Compaction(256, 0.25+0.5*rng.Float64(), rng.Uint64())
		xmtc = append(xmtc, plannedJob{
			daemon.JobSpec{Name: fmt.Sprintf("compact%d", i), Kind: "xmtc", Source: src},
			&jobRef{output: fmt.Sprint(nonZeros)},
		})
	}
	plan := make([]plannedJob, n)
	unique := 0
	for base := 0; base < n; base += daemonRate {
		size := min(daemonRate, n-base)
		for slot, i := range rng.Perm(size) {
			var j plannedJob
			var err error
			switch pick := i * 100 / daemonRate; {
			case pick < pctLong:
				j, err = asmJob("long", longIters)
			case pick < pctLong+pctXMTC:
				j = xmtc[i%len(xmtc)]
			case pick < pctLong+pctXMTC+pctUnique:
				unique++
				j, err = asmJob(fmt.Sprintf("unique%d", unique), shortIters+100+unique)
			default:
				k := i % 8
				j, err = asmJob(fmt.Sprintf("shared%d", k), shortIters-8*k)
			}
			if err != nil {
				return nil, err
			}
			j.spec.Priority = slot % 3
			j.spec.Tenant = [...]string{"a", "b"}[(slot/3)%2]
			plan[base+slot] = j
		}
	}

	workers := 2
	if runtime.NumCPU() < workers {
		workers = runtime.NumCPU()
	}
	dir, err := os.MkdirTemp(e.dataDir, "d")
	if err != nil {
		return nil, err
	}
	d, err := daemon.New(daemon.Options{
		Config:          cfg,
		DataDir:         dir,
		Workers:         workers,
		CheckpointEvery: daemonCkptEvery,
		Retries:         1,
		MaxQueued:       1 << 20,
	})
	if err != nil {
		return nil, err
	}
	di := &daemonInstance{d: d, dir: dir, plan: plan}

	// Warm-up: every shared source once, as a daemon that has been up for a
	// while would have them cached. The unique sources stay unseen.
	var warm []plannedJob
	for k := 0; k < 8; k++ {
		j, _ := asmJob(fmt.Sprintf("shared%d", k), shortIters-8*k)
		warm = append(warm, j)
	}
	long, _ := asmJob("long", longIters)
	warm = append(append(warm, xmtc...), long)
	for _, j := range warm {
		st, aerr := d.Submit(&j.spec)
		if aerr != nil {
			d.Close()
			return nil, fmt.Errorf("warm-up submit: %v", aerr)
		}
		if err := di.await(st.ID, j.ref, span{}); err != nil {
			d.Close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	di.warm = d.Hists().Summaries()
	di.warmI = d.Info()
	return di, nil
}

// daemonRef runs prog in functional mode and fingerprints the final state
// the way the daemon does: FNV-1a over memory, global registers and output.
func daemonRef(prog *xmtgo.Program, memBytes uint32) (*jobRef, error) {
	var out bytes.Buffer
	m, err := funcmodel.New(prog, memBytes, &out)
	if err != nil {
		return nil, err
	}
	defer m.ReleaseMemory()
	if err := m.Run(0); err != nil {
		return nil, err
	}
	h := fnv.New64a()
	h.Write(m.Mem)
	var b [4]byte
	for _, g := range m.G {
		b[0], b[1], b[2], b[3] = byte(g), byte(g>>8), byte(g>>16), byte(g>>24)
		h.Write(b[:])
	}
	io.WriteString(h, out.String())
	return &jobRef{
		output:  strings.TrimSpace(out.String()),
		instrs:  m.InstrCount,
		memHash: fmt.Sprintf("%016x", h.Sum64()),
		full:    true,
	}, nil
}

// await waits for the job and checks its result against the reference.
func (di *daemonInstance) await(id string, ref *jobRef, root span) error {
	sp := root.child("Daemon.Wait")
	st, aerr := di.d.Wait(id, time.Minute)
	sp.end()
	if aerr != nil {
		return fmt.Errorf("job %s: %v", id, aerr)
	}
	if st.State != daemon.StateDone || st.Result == nil {
		return fmt.Errorf("job %s ended %s: %+v", id, st.State, st.Result)
	}
	if got := strings.TrimSpace(st.Result.Output); got != ref.output {
		return fmt.Errorf("job %s printed %q, want %q", id, got, ref.output)
	}
	// A job that ran in several segments — it crossed a checkpoint boundary
	// or was preempted — reports the instructions of its last segment
	// only, so the count is checked on jobs that ran in one piece.
	onePiece := st.Resumes == 0 && st.Preemptions == 0 && st.Result.Cycles < daemonCkptEvery
	if ref.full && (st.Result.MemHash != ref.memHash || onePiece && st.Result.Instrs != ref.instrs) {
		return fmt.Errorf("job %s: %d instructions, hash %s; functional reference %d, %s",
			id, st.Result.Instrs, st.Result.MemHash, ref.instrs, ref.memHash)
	}
	return nil
}

// measure offers the next rate×d jobs of the plan from one submitting
// goroutine, each at its due time, and waits for all of them.
func (di *daemonInstance) measure(d time.Duration, tr *tracer) *phase {
	n := int(float64(daemonRate) * d.Seconds())
	if n > daemonRate {
		n -= n % daemonRate // whole blocks of the plan: slices are cut at block ends
	}
	if n > len(di.plan)-di.next {
		n = len(di.plan) - di.next
	}
	jobs := di.plan[di.next : di.next+n]
	di.next += n
	interval := time.Second / daemonRate

	p := &phase{inputs: 1}
	var mu sync.Mutex // guards p's op records
	var wg sync.WaitGroup
	meter := startMeter(p)
	sliced := 0 // correct operations already counted into a slice
	cut := func() {
		mu.Lock()
		done := len(p.opMs)
		mu.Unlock()
		meter.cut(done - sliced)
		sliced = done
	}
	for i := range jobs {
		j := &jobs[i]
		due := meter.start.Add(time.Duration(i) * interval)
		if i > 0 && i%daemonRate == 0 {
			cut()
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		p.lagMs = append(p.lagMs, ms(time.Since(due)))
		if i == n-1 {
			p.backlogEnds = append(p.backlogEnds, float64(di.d.Info().QueueDepth))
		}
		root := tr.root(i, "op", due)
		sp := root.child("Daemon.Submit")
		st, aerr := di.d.Submit(&j.spec)
		sp.end()
		p.attempted++
		if aerr != nil {
			root.end()
			mu.Lock()
			p.fail(fmt.Errorf("submit: %v", aerr))
			mu.Unlock()
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := di.await(st.ID, j.ref, root)
			dt := time.Since(due)
			root.end()
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				p.fail(err)
			} else {
				p.record(0, dt)
			}
		}()
	}
	wg.Wait()
	cut()
	meter.stop()
	return p
}

func (di *daemonInstance) close() error { return di.d.Close() }

// layers reads the daemon's own histograms — count and mean only, since
// their quantiles are power-of-two bucket bounds — over the measured
// phases, and times the durable primitives underneath it directly.
func (di *daemonInstance) layers(m Metrics, tr *tracer) error {
	submit := tr.durationsMs("Daemon.Submit")
	m["daemon.submit_ms_p50"] = median(submit)
	m["daemon.submit_ms_p99"] = quantile(submit, 0.99)

	now := di.d.Hists().Summaries()
	since := func(key string) (count, meanMs float64) {
		a, b := di.warm[key], now[key]
		count = float64(b.Count - a.Count)
		if count > 0 {
			meanMs = (b.MeanNs*float64(b.Count) - a.MeanNs*float64(a.Count)) / count / 1e6
		}
		return
	}
	_, m["daemon.queue_wait_mean_ms"] = since(obs.HistQueueWait)
	m["daemon.compiles"], m["daemon.compile_mean_ms"] = since(obs.HistCompile)
	_, m["daemon.ttfs_mean_ms"] = since(obs.HistTTFS)
	_, m["daemon.ckpt_write_mean_ms"] = since(obs.HistCkptWrite)
	m["daemon.journal_appends"], m["daemon.journal_fsync_mean_ms"] = since(obs.HistJournalFsync)
	info := di.d.Info()
	m["daemon.preemptions"] = float64(info.Preemptions - di.warmI.Preemptions)
	m["daemon.retries"] = float64(info.Retries - di.warmI.Retries)

	rt, err := di.roundTripUs(200)
	if err != nil {
		return err
	}
	m["daemon.server_roundtrip_us_p50"] = rt

	jl, _, err := daemon.OpenJournal(filepath.Join(di.dir, "ledger.journal"))
	if err != nil {
		return err
	}
	spec := &di.plan[0].spec
	appendMs := timeReps(100, func() {
		if _, aerr := jl.Append(daemon.Record{Kind: daemon.RecSubmit, ID: "ledger", Spec: spec}); aerr != nil {
			err = aerr
		}
	})
	if cerr := jl.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	m["daemon.journal_append_us_p50"] = median(appendMs) * 1000

	blob := make([]byte, daemonMemBytes) // a checkpoint envelope is the memory image
	path := filepath.Join(di.dir, "ledger.ckpt")
	m["atomicfile.write_ms_p50"] = median(timeReps(20, func() {
		if werr := atomicfile.WriteFile(path, blob, 0o644); werr != nil {
			err = werr
		}
	}))
	return err
}

// roundTripUs is the median ping over one unix-socket client: the wire
// protocol's cost with no job behind it.
func (di *daemonInstance) roundTripUs(n int) (float64, error) {
	sock := filepath.Join(di.dir, "s.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		return 0, err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		di.d.Serve(ln) // returns once the listener is closed below
	}()
	defer func() {
		di.d.CloseListener()
		<-served
	}()
	c, err := daemon.Dial("unix:" + sock)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	pings := timeReps(n, func() {
		if _, perr := c.Ping(); perr != nil {
			err = perr
		}
	})
	return median(pings) * 1000, err
}
