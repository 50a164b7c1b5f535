package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"xmtgo"
	"xmtgo/internal/asm"
	"xmtgo/internal/config"
	"xmtgo/internal/prng"
	"xmtgo/internal/sim/checkpoint"
	"xmtgo/internal/sim/cycle"
	"xmtgo/internal/sim/engine"
	"xmtgo/internal/sim/funcmodel"
	"xmtgo/internal/sim/metrics"
	"xmtgo/internal/sim/trace"
	wl "xmtgo/internal/workloads"
)

// simThreads is the virtual-thread count of the parallel Table I kernels:
// one per TCU of the chip1024 preset.
const simThreads = 1024

// simWorkload is one Table I kernel in cycle-accurate mode on chip1024. An
// operation is NewSimulator + Run + Release. The seed fills the kernel's
// input array through a memory map; the kernels' control flow and addresses
// do not depend on the data, so every seed simulates the same cycles and
// the statistics digest is one fixed value per workload, while the printed
// result differs per seed and is checked against a host-side oracle.
type simWorkload struct {
	name  string
	group wl.TableIGroup
	work  int
}

type simInstance struct {
	w    simWorkload
	cfg  config.Config
	prog *xmtgo.Program
	ref  funcRef // from a functional-mode run of the reference interpreter
	out  bytes.Buffer
	// smoke runs simulate a shrunken kernel, which the blessed digest does
	// not describe.
	smoke bool

	lastCycles int64
	lastInstrs uint64
}

// funcRef is what a correct run of a program must reproduce.
type funcRef struct {
	output string
	hash   uint64 // final data segment
	instrs uint64
}

func (w simWorkload) setup(seed uint64, e *env) (instance, error) {
	work := w.work
	if e.smoke {
		work = max(work/50, 4)
	}
	src := wl.TableI(w.group, simThreads, work)
	memmap, want := tableIInput(w.group, work, seed)
	var maps []string
	if memmap != "" {
		maps = append(maps, memmap)
	}
	prog, _, err := xmtgo.Build(w.name+".c", src, xmtgo.DefaultCompileOptions(), maps...)
	if err != nil {
		return nil, err
	}
	s := &simInstance{w: w, cfg: xmtgo.ConfigChip1024(), prog: prog, smoke: e.smoke}
	if s.ref, err = functionalRef(prog, s.cfg.MemBytes); err != nil {
		return nil, err
	}
	if s.ref.output != want {
		return nil, fmt.Errorf("functional reference printed %q, host oracle says %q", s.ref.output, want)
	}
	if err := s.op(span{}); err != nil { // warm-up: memory pool, lowered caches
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

// tableIInput generates the kernel's input array from the seed and computes
// on the host what the kernel must print.
func tableIInput(g wl.TableIGroup, work int, seed uint64) (memmap, want string) {
	rng := prng.New(seed)
	fill := func(n int) []int32 {
		a := make([]int32, n)
		var b strings.Builder
		b.WriteString("A =")
		for i := range a {
			a[i] = int32(rng.Intn(1000))
			b.WriteByte(' ')
			b.WriteString(strconv.Itoa(int(a[i])))
		}
		b.WriteByte('\n')
		memmap = b.String()
		return a
	}
	switch g {
	case wl.ParallelMemory:
		n := simThreads * 8
		a := fill(n)
		var sink int32
		for t := 0; t < simThreads; t++ {
			for i := 0; i < work; i++ {
				sink += a[(t*37+i*61)%n]
			}
		}
		return memmap, strconv.Itoa(int(sink))
	case wl.SerialMemory:
		a := fill(work)
		var s int32
		for i := 0; i < work; i++ {
			s += a[(i*97)%work]
			a[(i*89+13)%work] = s
		}
		return memmap, strconv.Itoa(int(s))
	}
	return "", "1" // the compute kernels take no input and print 1
}

// functionalRef runs prog on the functional interpreter — the reference
// implementation every other execution path is tested against.
func functionalRef(prog *xmtgo.Program, memBytes uint32) (funcRef, error) {
	var out bytes.Buffer
	m, err := funcmodel.New(prog, memBytes, &out)
	if err != nil {
		return funcRef{}, err
	}
	defer m.ReleaseMemory()
	if err := m.Run(0); err != nil {
		return funcRef{}, err
	}
	if !m.Halted {
		return funcRef{}, fmt.Errorf("functional reference did not halt")
	}
	return funcRef{strings.TrimSpace(out.String()), stateHash(prog, m), m.InstrCount}, nil
}

// stateHash fingerprints the program's final data segment. The global
// registers stay out: the thread-id register counts every TCU's failed grab
// in cycle mode and none in the serializing functional mode.
func stateHash(prog *xmtgo.Program, m *funcmodel.Machine) uint64 {
	h := fnv.New64a()
	h.Write(m.Mem[asm.DataBase:prog.DataEnd])
	return h.Sum64()
}

func (s *simInstance) measure(d time.Duration, tr *tracer) *phase {
	return closedLoop(d, 1, func(i int) error {
		root := tr.root(i, "op", time.Now())
		defer root.end()
		return s.op(root)
	})
}

// op is one operation: build the simulator, run the program to completion,
// check the result against the references, release the memory.
func (s *simInstance) op(root span) error {
	sys, res, err := s.simulate(root, s.cfg, nil)
	if err != nil {
		return err
	}
	s.lastCycles, s.lastInstrs = res.Cycles, res.Instrs
	sp := root.child("System.Release")
	sys.Release()
	sp.end()
	return nil
}

// simulate runs the program under cfg and checks output, final state and
// instruction count. The caller releases the system.
func (s *simInstance) simulate(root span, cfg config.Config, attach func(*cycle.System)) (*cycle.System, *cycle.Result, error) {
	s.out.Reset()
	sp := root.child("cycle.New")
	sys, err := xmtgo.NewSimulator(s.prog, cfg, &s.out)
	sp.end()
	if err != nil {
		return nil, nil, err
	}
	if attach != nil {
		attach(sys)
	}
	sp = root.child("System.Run")
	res, err := sys.Run(0)
	sp.end()
	if err == nil {
		err = s.check(sys, res)
	}
	if err != nil {
		sys.Release()
		return nil, nil, err
	}
	return sys, res, nil
}

func (s *simInstance) check(sys *cycle.System, res *cycle.Result) error {
	if !res.Halted {
		return fmt.Errorf("program did not halt")
	}
	if got := strings.TrimSpace(s.out.String()); got != s.ref.output {
		return fmt.Errorf("printed %q, want %q", got, s.ref.output)
	}
	// In a spawn every TCU's failed grab of a thread id is an instruction the
	// serializing functional mode never executes, so counts agree only for
	// serial programs.
	if len(s.prog.Spawns) == 0 && res.Instrs != s.ref.instrs {
		return fmt.Errorf("executed %d instructions, functional reference %d", res.Instrs, s.ref.instrs)
	}
	if got := stateHash(s.prog, sys.Machine); got != s.ref.hash {
		return fmt.Errorf("final memory hash %016x, functional reference %016x", got, s.ref.hash)
	}
	return nil
}

func (s *simInstance) close() error { return nil }

// ledgerReps is how many times the ledger repeats each measurement; it
// reports the quiet value.
const ledgerReps = 3

func (s *simInstance) layers(m Metrics, tr *tracer) error {
	m["cycle.new_ms"] = tr.quietMs("cycle.New")
	m["cycle.run_ms"] = tr.quietMs("System.Run")
	m["cycle.release_ms"] = tr.quietMs("System.Release")
	if run := m["cycle.run_ms"]; run > 0 {
		m["cycle.sim_kcycles_per_s"] = float64(s.lastCycles) / run
		m["cycle.sim_kinstr_per_s"] = float64(s.lastInstrs) / run
		m["cycle.host_us_per_sim_cycle"] = run * 1000 / float64(s.lastCycles)
	}
	m["cycle.sim_cycles_per_op"] = float64(s.lastCycles)
	m["cycle.sim_instrs_per_op"] = float64(s.lastInstrs)
	// Every cycle-mode operation starts from the functional model's memory
	// pool, so its cost shows here as well as on func-run.
	m["funcmodel.new_ms"] = quiet(timeReps(ledgerReps, func() {
		if fm, err := funcmodel.New(s.prog, s.cfg.MemBytes, nil); err == nil {
			fm.ReleaseMemory()
		}
	}))

	if err := s.statsLedger(m); err != nil {
		return err
	}
	switch s.w.group {
	case wl.ParallelMemory:
		if err := s.variantLedger(m, true); err != nil {
			return err
		}
		return s.checkpointLedger(m)
	case wl.ParallelCompute:
		return s.variantLedger(m, false)
	default:
		m["engine.sched_ns_per_event"] = schedNsPerEvent()
	}
	return nil
}

// statsLedger reads the modelled components' counters off one run and
// compares the SHA-256 of the snapshot JSON with the blessed digest: a
// change meant only to speed the simulator up must leave it unchanged.
func (s *simInstance) statsLedger(m Metrics) error {
	sys, res, err := s.simulate(span{}, s.cfg, nil)
	if err != nil {
		return err
	}
	defer sys.Release()
	var buf bytes.Buffer
	var snapErr error
	m["stats.snapshot_json_ms"] = quiet(timeReps(ledgerReps, func() {
		buf.Reset()
		snapErr = sys.Stats.Snapshot(res.Cycles, res.Ticks).WriteJSON(&buf)
	}))
	if snapErr != nil {
		return snapErr
	}
	snap := sys.Stats.Snapshot(res.Cycles, res.Ticks)
	m["stats.cache_hits"] = float64(snap.Memory.CacheHits)
	m["stats.cache_misses"] = float64(snap.Memory.CacheMisses)
	m["stats.dram_accesses"] = float64(snap.Memory.DRAMTotal)
	m["stats.icn_traversals"] = float64(snap.Memory.ICNTraversals)
	m["stats.icn_hops"] = float64(snap.Memory.ICNHops)
	m["stats.stall_mem_cycles"] = float64(snap.Stalls.Mem)
	m["stats.stall_icn_send_cycles"] = float64(snap.Stalls.ICNSend)
	m["stats.stall_ps_cycles"] = float64(snap.Stalls.PS)
	m["stats.master_cache_misses"] = float64(snap.Memory.MasterCacheMiss)

	sum := sha256.Sum256(buf.Bytes())
	got := hex.EncodeToString(sum[:])
	want, err := os.ReadFile(filepath.Join("benchmark", "expected", s.w.name+".sha256"))
	if err == nil && strings.TrimSpace(string(want)) == got {
		m["stats.digest_match"] = 1
	} else if m["stats.digest_match"] = 0; !s.smoke {
		fmt.Fprintf(os.Stderr, "xmtbench: %s: statistics digest %s does not match benchmark/expected (%v)\n", s.w.name, got, err)
	}
	return nil
}

// variantLedger prices the engine's alternative scheduling paths and, on
// sim-par-mem, every feature that claims to be free when off: each is one
// more configuration of the same run, interleaved with the default so that
// drift on the host cancels.
func (s *simInstance) variantLedger(m Metrics, freeWhenOff bool) error {
	type variant struct {
		metric string
		cfg    func(*config.Config)
		attach func(*cycle.System)
	}
	variants := []variant{
		{"", nil, nil},
		{"cycle.run_ms.workers1", func(c *config.Config) { c.HostWorkers = 1 }, nil},
		{"cycle.run_ms.lookahead1", func(c *config.Config) { c.Lookahead = 1 }, nil},
		{"cycle.run_ms.optimistic", func(c *config.Config) { c.EngineMode = config.EngineOptimistic }, nil},
	}
	if freeWhenOff {
		variants = append(variants,
			variant{"trace.on_cost_pct", nil, func(sys *cycle.System) { sys.SetEventLog(trace.NewEventLog()) }},
			variant{"metrics.sampler_on_cost_pct", nil, func(sys *cycle.System) { metrics.Attach(sys, 1000) }},
			variant{"race.on_cost_pct", func(c *config.Config) { c.RaceCheck = true }, nil},
		)
	}
	runMs := make([][]float64, len(variants))
	for r := 0; r < ledgerReps; r++ {
		for i, v := range variants {
			cfg := s.cfg
			if v.cfg != nil {
				v.cfg(&cfg)
			}
			tr := newTracer()
			sys, _, err := s.simulate(tr.root(0, "variant", time.Now()), cfg, v.attach)
			if err != nil {
				return fmt.Errorf("variant %q: %w", v.metric, err)
			}
			if v.metric == "cycle.run_ms.optimistic" {
				m["cycle.rollbacks"] = float64(sys.Rollbacks())
			}
			sys.Release()
			runMs[i] = append(runMs[i], tr.quietMs("System.Run"))
		}
	}
	off := quiet(runMs[0])
	for i, v := range variants[1:] {
		on := quiet(runMs[i+1])
		if strings.HasSuffix(v.metric, "_cost_pct") {
			m[v.metric] = (on/off - 1) * 100
		} else {
			m[v.metric] = on
		}
	}
	return nil
}

// checkpointLedger times capture, encode and decode of the chip1024 state
// at the end of a sim-par-mem run (the kernel is one spawn, so that is its
// only quiescent point).
func (s *simInstance) checkpointLedger(m Metrics) error {
	sys, _, err := s.simulate(span{}, s.cfg, nil)
	if err != nil {
		return err
	}
	defer sys.Release()
	var st *checkpoint.State
	m["checkpoint.capture_ms"] = quiet(timeReps(ledgerReps, func() { st = sys.Capture() }))
	var buf bytes.Buffer
	m["checkpoint.save_ms"] = quiet(timeReps(ledgerReps, func() {
		buf.Reset()
		err = checkpoint.Save(&buf, st)
	}))
	if err != nil {
		return err
	}
	m["checkpoint.bytes"] = float64(buf.Len())
	blob := buf.Bytes()
	m["checkpoint.load_ms"] = quiet(timeReps(ledgerReps, func() {
		_, err = checkpoint.Load(bytes.NewReader(blob))
	}))
	return err
}

// timeReps times n calls of f, in milliseconds.
func timeReps(n int, f func()) []float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		f()
		out[i] = ms(time.Since(t0))
	}
	return out
}

// ticker reschedules itself one period later until its budget is spent —
// the shape of every clocked component's wake-up.
type ticker struct {
	s    *engine.Scheduler
	left int
}

func (t *ticker) Notify(now engine.Time) {
	if t.left--; t.left > 0 {
		t.s.Schedule(now+8, 0, t)
	}
}

// schedNsPerEvent drives the public Scheduler with a million events from
// 1000 self-rescheduling actors and returns the host cost of one
// schedule + dispatch.
func schedNsPerEvent() float64 {
	const actors, each = 1000, 1000
	return quiet(timeReps(ledgerReps, func() {
		s := engine.New()
		for i := 0; i < actors; i++ {
			s.Schedule(engine.Time(i%8), 0, &ticker{s, each})
		}
		s.Run()
	})) * 1e6 / (actors * each)
}
