package cycle

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"xmtgo/internal/asm"
	"xmtgo/internal/bitset"
	"xmtgo/internal/config"
	"xmtgo/internal/isa"
	"xmtgo/internal/sim/checkpoint"
	"xmtgo/internal/sim/engine"
	"xmtgo/internal/sim/funcmodel"
	"xmtgo/internal/sim/funcvm"
	"xmtgo/internal/sim/race"
	"xmtgo/internal/sim/stats"
	"xmtgo/internal/sim/trace"
)

// System is the assembled cycle-accurate XMT machine: every solid box of
// the paper's Fig. 1 exists as one component instance, grouped into
// macro-actors per clock domain on a single discrete-event scheduler.
type System struct {
	Cfg     *config.Config
	Prog    *asm.Program
	Sched   *engine.Scheduler
	Machine *funcmodel.Machine
	Stats   *stats.Collector

	clusterClock *engine.Clock
	icnClock     *engine.Clock
	cacheClock   *engine.Clock
	dramClock    *engine.Clock
	masterClock  *engine.Clock

	// issue is Prog lowered to the pre-decoded issue-record stream the TCUs
	// and the master dispatch on (funcvm.IssueRec, indexed by pc): built
	// once per program by the shared lowering pass and cached on it.
	issue []funcvm.IssueRec

	clusters []*Cluster
	modules  []*CacheModule
	dram     *DRAM
	icn      *ICN
	ps       *PSUnit
	spawn    *SpawnUnit
	master   *Master

	// clusterMA ticks all clusters in one event per cluster cycle — the
	// hot phase of the simulation — sharding them across pool's host
	// workers (paper §III-D's macro-actor, parallelized on the host).
	clusterMA   *engine.ParallelMacroActor
	pool        *engine.WorkerPool
	hostWorkers int

	icnMA    *engine.MacroActor
	cacheMA  *engine.MacroActor
	masterMA *engine.MacroActor
	// cacheActive holds the modules whose service queue may be non-empty:
	// entered in CacheModule.accept, walked by tickCaches, cacheMA's Cycler.
	cacheActive bitset.Set

	lineShift uint
	hashSalt  uint64

	// asyncPortFree is the next-free time of each asynchronous injection
	// port (one per cluster plus the master's), used when Cfg.ICNAsync.
	asyncPortFree []engine.Time

	err          error
	halted       bool
	checkpointed bool
	// cycleOffset and instrBase are the cluster cycle and the retired
	// instructions at the checkpoint this system resumed from (zero for a
	// fresh one): results and captures count from program start.
	cycleOffset int64
	instrBase   uint64

	// commitCycle/commitNow describe the window cycle currently being
	// committed by the bounded-lookahead engine (-1 when no window commit
	// is active). A multi-cycle window commits cycle k at edge time nowK
	// while the scheduler clock still reads the window-entry time, so
	// anything that consults "the current cycle" during a commit — the
	// syscall cycle trap, the halt/fail stop path — must use these instead.
	commitCycle int64
	commitNow   engine.Time

	// delivFree pools the package-delivery actors the cache modules
	// schedule for every response (scheduler goroutine only).
	delivFree []*pkgDeliver

	// injector holds the materialized fault plan (nil when Cfg.FaultPlan is
	// empty); aliveTCUs tracks TCUs not yet decommissioned by permanent
	// faults (docs/ROBUSTNESS.md).
	injector  *injector
	aliveTCUs int

	// ckptEvery/nextCkpt drive periodic checkpointing (CheckpointEvery):
	// the master stops at a quiescent point once the target cycle passes.
	ckptEvery int64
	nextCkpt  int64
	// ckptReq is the asynchronous checkpoint request (RequestCheckpoint):
	// signal handlers and daemon preemption set it from other goroutines;
	// the master consumes it at its next quiescent point.
	ckptReq atomic.Bool

	// traceFn, when set, observes every issued instruction
	// (tcu = -1 for the master).
	traceFn func(tcu int, pc int, in isa.Instr, now engine.Time)

	// race is the xmtsan happens-before sanitizer (nil unless
	// Cfg.RaceCheck). Every call site is a serial context — cache service,
	// outbox commit, package delivery, the spawn unit's scheduled closures —
	// so the detector needs no locking and its reports are byte-identical
	// for any host worker count. raceEmitted is the drain cursor into its
	// report list (counters + EvRace events are emitted as reports appear).
	race        *race.Detector
	raceEmitted int

	// evlog, when set, receives the structured event stream (Chrome trace
	// export). Serial contexts append directly; cluster compute phases fill
	// per-cluster rings drained at outbox commit.
	evlog *trace.EventLog
	// profile, when set, attributes issue and stall cycles to PCs: one
	// shard per cluster plus a final shard for the master.
	profile *stats.LineProfile

	plugins []*pluginBinding
}

// Result summarizes a cycle-accurate run.
type Result struct {
	Cycles     int64 // cluster-domain cycles elapsed (including any resume offset)
	Ticks      engine.Time
	Instrs     uint64 // instructions retired (including before any resume)
	Halted     bool   // program executed sys halt
	TimedOut   bool   // stopped by the cycle budget instead
	Checkpoint bool   // stopped at a sys checkpoint trap
}

// New builds a system for prog under cfg; out receives printf output.
func New(prog *asm.Program, cfg config.Config, out io.Writer) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	issue, err := funcvm.NewCode(prog).Issue()
	if err != nil {
		return nil, fmt.Errorf("cycle: %v", err)
	}
	mach, err := funcmodel.New(prog, cfg.MemBytes, out)
	if err != nil {
		return nil, err
	}
	s := &System{
		Cfg:     &cfg,
		Prog:    prog,
		Sched:   engine.New(),
		Machine: mach,
		issue:   issue,
		Stats:   stats.NewCollector(cfg.Clusters, cfg.CacheModules, cfg.DRAMPorts),
	}
	s.lineShift = log2u(uint32(cfg.CacheLineSize))
	s.hashSalt = cfg.Seed*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d

	// Size the calendar-queue buckets to the clock-period GCD so each
	// bucket holds roughly one edge's events (runtime DVFS may later
	// misalign this; that only costs speed, never correctness).
	s.Sched.SetBucketWidth(gcd64(cfg.ClusterPeriod,
		gcd64(cfg.ICNPeriod, gcd64(cfg.CachePeriod, gcd64(cfg.DRAMPeriod, cfg.MasterPeriod)))))

	s.clusterClock = engine.NewClock("cluster", cfg.ClusterPeriod)
	s.icnClock = engine.NewClock("icn", cfg.ICNPeriod)
	s.cacheClock = engine.NewClock("cache", cfg.CachePeriod)
	s.dramClock = engine.NewClock("dram", cfg.DRAMPeriod)
	s.masterClock = engine.NewClock("master", cfg.MasterPeriod)

	for i := 0; i < cfg.CacheModules; i++ {
		s.modules = append(s.modules, newCacheModule(s, i))
	}
	s.dram = newDRAM(s)
	for i := 0; i < cfg.Clusters; i++ {
		s.clusters = append(s.clusters, newCluster(s, i))
	}
	s.ps = newPSUnit(s)
	s.spawn = newSpawnUnit(s)
	s.master = newMaster(s)
	s.icn = newICN(s)
	s.asyncPortFree = make([]engine.Time, cfg.Clusters+1)
	s.aliveTCUs = cfg.TCUs()
	if cfg.RaceCheck {
		s.race = race.New(cfg.TCUs())
	}
	if cfg.FaultPlan != "" {
		inj, err := newInjector(s)
		if err != nil {
			return nil, fmt.Errorf("cycle: %v", err)
		}
		s.injector = inj
	}

	// Resolve the host worker count: never more workers than clusters. A
	// single worker uses no pool at all — the same window loop runs on the
	// scheduler goroutine.
	workers := cfg.HostWorkers
	if workers <= 0 {
		workers = config.DefaultHostWorkers
	}
	if workers > cfg.Clusters {
		workers = cfg.Clusters
	}
	s.hostWorkers = workers
	if workers > 1 {
		s.pool = engine.NewWorkerPool(workers)
	}
	s.clusterMA = engine.NewParallelMacroActor("clusters", s.Sched, s.clusterClock, s.pool)
	for _, c := range s.clusters {
		s.clusterMA.Add(c)
	}
	s.clusterMA.SetLookahead(deriveLookahead(&cfg), cfg.EngineMode == config.EngineOptimistic)
	s.icnMA = engine.NewMacroActor("icn", s.Sched, s.icnClock, s.icn)
	s.cacheActive = bitset.New(cfg.CacheModules)
	s.cacheMA = engine.NewMacroActor("caches", s.Sched, s.cacheClock, engine.CyclerFunc(s.tickCaches))
	s.masterMA = engine.NewMacroActor("master", s.Sched, s.masterClock, s.master)

	s.commitCycle, s.commitNow = -1, -1
	mach.CycleFn = func() int64 {
		if s.commitCycle >= 0 {
			return s.commitCycle
		}
		return s.clusterClock.Cycle(s.Sched.Now())
	}
	return s, nil
}

// deriveLookahead resolves Config.Lookahead into a window size in cluster
// cycles. 0 (the default) derives the window from the minimum cross-cluster
// latency: the soonest a package injected now can act back on any cluster
// is an ICN traversal out, a cache hit, and a traversal back. Faster
// feedback paths (the prefix-sum unit, package deliveries) are scheduler
// events, and windows never extend past the next pending event, so they
// need no bound here. Correctness never depends on the value at all
// (windows also close at every shared-state record); the derivation just
// picks a good batch size. Clamped to [1, 64].
func deriveLookahead(cfg *config.Config) int {
	if cfg.Lookahead > 0 {
		return cfg.Lookahead
	}
	minLat := 2*cfg.ICNBaseLatency*cfg.ICNPeriod + cfg.CacheHitLatency*cfg.CachePeriod
	w := int(minLat / cfg.ClusterPeriod)
	if w < 1 {
		w = 1
	}
	if w > 64 {
		w = 64
	}
	return w
}

// Lookahead returns the resolved window size in cluster cycles.
func (s *System) Lookahead() int { return s.clusterMA.Lookahead() }

// Rollbacks returns how many optimistic window overruns were rolled back
// and replayed (always 0 in the conservative mode).
func (s *System) Rollbacks() uint64 { return s.clusterMA.Rollbacks() }

// WindowStats returns the cluster domain's window counts by span and by
// what ended each window (docs/PERF.md §Host-parallel cluster simulation).
// They describe host scheduling, so they are in no counter report or
// snapshot; call from the scheduler goroutine or after Run.
func (s *System) WindowStats() engine.WindowStats { return s.clusterMA.WindowStats() }

// beginCommit/endCommit bracket one window cycle's outbox replay, exposing
// the committing cycle and its edge time to effects that run inside it.
func (s *System) beginCommit(cycle int64, now engine.Time) {
	s.commitCycle, s.commitNow = cycle, now
}

func (s *System) endCommit() {
	s.commitCycle, s.commitNow = -1, -1
}

// SetTrace installs an instruction observer (tcu = -1 for the master).
func (s *System) SetTrace(fn func(tcu int, pc int, in isa.Instr, now engine.Time)) {
	s.traceFn = fn
	s.syncObserved()
}

// syncObserved recomputes every cluster's observed flag after an observer
// was attached.
func (s *System) syncObserved() {
	for _, c := range s.clusters {
		c.observed = s.traceFn != nil || c.evRing != nil || c.prof != nil
	}
}

// SetEventLog enables structured event tracing into l: per-cluster rings
// collect events from the parallel compute phase and drain into l at outbox
// commit (cluster-id order), so the log — and the Chrome trace exported
// from it — is bit-identical for any host worker count.
func (s *System) SetEventLog(l *trace.EventLog) {
	s.evlog = l
	for _, c := range s.clusters {
		c.evRing = trace.NewRing(0)
	}
	s.syncObserved()
}

// EventLog returns the attached structured event log (nil when disabled).
func (s *System) EventLog() *trace.EventLog { return s.evlog }

// ChromeMeta describes the machine shape for the Chrome trace exporter.
func (s *System) ChromeMeta() trace.ChromeMeta {
	return trace.ChromeMeta{Clusters: s.Cfg.Clusters, TCUsPerCluster: s.Cfg.TCUsPerCluster}
}

// AttachProfile enables the cycle profiler: p must have been sized with
// Clusters+1 shards (NewLineProfile(prog, cfg.Clusters+1)). Each cluster
// attributes into its own shard from its compute phase, the master into the
// last; merged totals are worker-count independent.
func (s *System) AttachProfile(p *stats.LineProfile) {
	s.profile = p
	for i, c := range s.clusters {
		c.prof = p.Shard(i)
	}
	s.master.prof = p.Shard(len(s.clusters))
	s.syncObserved()
}

// Master context accessor (for tests and checkpoints).
func (s *System) MasterContext() *funcmodel.Context { return &s.master.ctx }

// HostWorkers returns the resolved number of host worker goroutines
// ticking the cluster shards (1 = serial).
func (s *System) HostWorkers() int { return s.hostWorkers }

// StartCycle returns the cluster cycle this system starts counting from:
// zero for a fresh system, the checkpoint's cycle offset after RestoreState.
func (s *System) StartCycle() int64 { return s.cycleOffset }

// StartInstrs returns the retired-instruction count this system starts
// counting from: zero for a fresh system, the checkpoint's count after
// RestoreState.
func (s *System) StartInstrs() uint64 { return s.instrBase }

// AliveTCUs returns the number of TCUs not decommissioned by permanent
// faults.
func (s *System) AliveTCUs() int { return s.aliveTCUs }

// Release returns the machine's shared-memory buffer to the recycling pool.
// Optional; call only after the run's results (including Machine.Mem) have
// been read. The system must not be used afterwards. Batch drivers that
// simulate many programs back-to-back avoid re-zeroing tens of megabytes of
// fresh memory per run.
func (s *System) Release() { s.Machine.ReleaseMemory() }

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a <= 0 {
		return 1
	}
	return a
}

// route delivers an expiring package back to its originating context and
// recycles the package. This is the single free point of the package pools:
// a package allocated by a cluster's compute phase or by Master.send lives
// until the memory system routes its (possibly in-place mutated) response
// back here; nothing downstream of deliver keeps the pointer.
func (s *System) route(p *Package, now engine.Time) {
	if p.Cluster < 0 {
		s.master.deliver(p, now)
		s.master.pkgFree.free(p)
		return
	}
	c := s.clusters[p.Cluster]
	c.tcus[p.TCU].deliver(p, now)
	c.pkgFree.free(p)
}

// pkgDeliver is a pooled actor that routes one package at its scheduled
// time — the allocation-free replacement for the per-response closure the
// cache modules used to capture.
type pkgDeliver struct {
	sys *System
	p   *Package
}

func (d *pkgDeliver) Notify(now engine.Time) {
	p := d.p
	d.p = nil
	d.sys.delivFree = append(d.sys.delivFree, d)
	d.sys.route(p, now)
}

// scheduleDeliver routes p at time at (PrioTransfer), via the actor pool.
func (s *System) scheduleDeliver(p *Package, at engine.Time) {
	var d *pkgDeliver
	if n := len(s.delivFree); n > 0 {
		d = s.delivFree[n-1]
		s.delivFree = s.delivFree[:n-1]
	} else {
		d = &pkgDeliver{sys: s}
	}
	d.p = p
	s.Sched.Schedule(at, engine.PrioTransfer, d)
}

// RaceDetector returns the xmtsan detector (nil unless Cfg.RaceCheck).
func (s *System) RaceDetector() *race.Detector { return s.race }

// raceRead and raceWrite funnel shared-memory accesses into the sanitizer
// and surface any freshly confirmed reports. Nil-safe; serial contexts only.
func (s *System) raceRead(tcu int, addr uint32, line int, now engine.Time) {
	if s.race == nil {
		return
	}
	s.race.Read(tcu, addr, line)
	s.drainRaces(now)
}

func (s *System) raceWrite(tcu int, addr uint32, line int, now engine.Time) {
	if s.race == nil {
		return
	}
	s.race.Write(tcu, addr, line)
	s.drainRaces(now)
}

// drainRaces publishes newly confirmed race reports into the counters and
// the structured event stream, in detection order.
func (s *System) drainRaces(now engine.Time) {
	s.Stats.RaceChecks = s.race.Checks()
	reps := s.race.Reports()
	for ; s.raceEmitted < len(reps); s.raceEmitted++ {
		r := &reps[s.raceEmitted]
		s.Stats.RaceReports++
		if s.evlog != nil {
			s.evlog.Emit(trace.Event{TS: now, Kind: trace.EvRace,
				Ctx: int32(r.WriteTCU), PC: int32(r.WriteLine), Arg: int64(r.OtherLine)})
		}
	}
}

func (s *System) wakeClusters(now engine.Time) { s.clusterMA.Wake(now) }
func (s *System) wakeCaches(now engine.Time)   { s.cacheMA.Wake(now) }
func (s *System) wakeMaster(now engine.Time)   { s.masterMA.Wake(now) }
func (s *System) wakeICN(now engine.Time)      { s.icnMA.Wake(now) }

func (s *System) fail(err error) {
	if s.err == nil {
		s.err = err
	}
	// Stopping from inside a window commit: the scheduler clock still reads
	// the window-entry time; advance it to the failing cycle's edge so
	// Result.Cycles/Ticks do not depend on the window span.
	if s.commitNow >= 0 {
		s.Sched.AdvanceTo(s.commitNow)
	}
	s.Sched.Stop()
}

func (s *System) halt() {
	s.halted = true
	s.Machine.Halted = true
	if s.commitNow >= 0 {
		s.Sched.AdvanceTo(s.commitNow)
	}
	s.Sched.Stop()
}

// Err returns the first simulation error, if any.
func (s *System) Err() error { return s.err }

// Run simulates until the program halts or maxCycles cluster cycles elapse
// (maxCycles <= 0 means unlimited). A drained event list with a non-halted
// program is reported as a deadlock — it indicates a component bug or a
// program waiting on something that can never arrive.
func (s *System) Run(maxCycles int64) (*Result, error) {
	defer s.pool.Close() // park worker goroutines between runs (nil-safe)
	s.start(maxCycles)
	s.Sched.Run()
	return s.result(maxCycles)
}

// start arms everything a run needs before the first event: the cycle
// budget's stop event, the fault plan, the watchdog, the checkpoint cadence,
// the master's first wake and the activity plug-ins. It also tells the
// clusters whether filter plug-ins are attached.
func (s *System) start(maxCycles int64) {
	for _, c := range s.clusters {
		c.filtered = len(s.Stats.Filters()) > 0
	}
	if maxCycles > 0 {
		s.Sched.ScheduleStop(s.clusterClock.EdgeAt(maxCycles))
	}
	if s.injector != nil {
		s.injector.schedule()
	}
	if s.Cfg.WatchdogCycles > 0 {
		s.armWatchdog(s.Stats.TotalInstrs())
	}
	if s.ckptEvery > 0 {
		s.nextCkpt = s.cycleOffset + s.ckptEvery
	}
	s.wakeMaster(s.Sched.Now())
	for _, pb := range s.plugins {
		pb.scheduleNext(s, s.Sched.Now())
	}
}

// result drains the trace rings and summarizes the finished run.
func (s *System) result(maxCycles int64) (*Result, error) {
	// Events emitted after the last commit (deliveries, final wait spans)
	// are still sitting in the cluster rings: drain them, in cluster order.
	if s.evlog != nil {
		for _, c := range s.clusters {
			s.evlog.Drain(c.evRing)
		}
	}

	res := &Result{
		Cycles:     s.cycleOffset + s.clusterClock.Cycle(s.Sched.Now()),
		Ticks:      s.Sched.Now(),
		Instrs:     s.instrBase + s.Stats.TotalInstrs(),
		Halted:     s.halted,
		Checkpoint: s.checkpointed,
	}
	if s.err != nil {
		return res, s.err
	}
	if !s.halted && !s.checkpointed {
		if maxCycles > 0 && s.Sched.Now() >= s.clusterClock.EdgeAt(maxCycles) {
			res.TimedOut = true
			return res, nil
		}
		// Reached only when the watchdog is disabled (an armed watchdog
		// keeps at least one event pending and reports the wedge itself).
		return res, errors.New("cycle: simulation deadlock: event list drained before halt (enable watchdog_cycles for a progress diagnosis)")
	}
	return res, nil
}

// CheckpointEvery enables periodic checkpointing: the master stops the run
// at its next quiescent point (serial mode, write buffer drained) once n
// cluster cycles have elapsed since the last checkpoint, and Run returns
// with Result.Checkpoint set. The job runner (internal/jobrun, under xmtd
// and xmtbatch) uses it to bound how much work a retry can lose. n <= 0
// disables.
func (s *System) CheckpointEvery(n int64) { s.ckptEvery = n }

// RequestCheckpoint asks the running simulation to stop at its next
// architecturally quiescent point (serial mode, write buffer drained) with
// Result.Checkpoint set, exactly as if a periodic checkpoint had come due.
// Unlike every other System method it is safe to call from any goroutine —
// signal handlers and the xmtd daemon's preemption path use it to yield a
// run without perturbing its results. A program that never returns to
// serial mode (wedged inside a spawn region) never reaches a quiescent
// point; callers needing a hard stop must also bound the run with a cycle
// budget or the watchdog.
func (s *System) RequestCheckpoint() { s.ckptReq.Store(true) }

// checkpointStop halts the scheduler at a quiescent checkpoint trap.
func (s *System) checkpointStop() {
	s.checkpointed = true
	if s.commitNow >= 0 {
		s.Sched.AdvanceTo(s.commitNow)
	}
	s.Sched.Stop()
}

// Capture snapshots the architectural state after a checkpoint stop (or a
// halted run). The master context is copied into the machine so a plain
// functional checkpoint captures everything needed to resume.
func (s *System) Capture() *checkpoint.State {
	s.Machine.Master = s.master.ctx
	st := checkpoint.Capture(s.Machine, s.cycleOffset+s.clusterClock.Cycle(s.Sched.Now()))
	st.InstrCount = s.instrBase + s.Stats.TotalInstrs()
	for _, c := range s.clusters {
		for _, t := range c.tcus {
			if !t.alive {
				st.DeadTCUs = append(st.DeadTCUs, t.id)
			}
		}
	}
	return st
}

// RestoreState resumes a freshly built system from a checkpoint: memory,
// global registers, the master context and the output printed so far are
// restored, and cycle and instruction counting continue from the recorded
// totals.
func (s *System) RestoreState(st *checkpoint.State) error {
	if err := checkpoint.Restore(s.Machine, st); err != nil {
		return err
	}
	s.master.ctx = st.Master
	s.cycleOffset, s.instrBase = st.CycleOffset, st.InstrCount
	// Resume on the same degraded machine: TCUs decommissioned before the
	// capture stay dead (silently — the decommissions were already counted
	// and traced in the run that took the checkpoint).
	for _, id := range st.DeadTCUs {
		if id < 0 || id >= s.Cfg.TCUs() {
			return fmt.Errorf("cycle: checkpoint dead TCU %d outside machine (%d TCUs)", id, s.Cfg.TCUs())
		}
		t := s.tcuByID(id)
		if t.alive {
			t.alive = false
			t.setState(tcuDead)
			s.aliveTCUs--
		}
	}
	if s.aliveTCUs == 0 {
		return errors.New("cycle: checkpoint leaves no TCU alive")
	}
	return nil
}

// --- Activity plug-ins (paper §III-B) ---

// Snapshot is what an activity plug-in sees at each sampling interval.
type Snapshot struct {
	Now   engine.Time
	Cycle int64 // cluster-domain cycle, including any checkpoint-resume offset
	Stats *stats.Collector
	// AliveTCUs counts TCUs not decommissioned by permanent faults.
	AliveTCUs int
}

// Control is the runtime API an activity plug-in uses to modify the
// operation of the cycle-accurate components: changing clock-domain
// frequencies, gating domains off and on, or stopping the simulation —
// the mechanism that enables dynamic power and thermal management studies.
type Control struct {
	sys *System
	now engine.Time
}

// Domains lists the clock-domain names.
func (c *Control) Domains() []string {
	return []string{"cluster", "icn", "cache", "dram", "master"}
}

func (c *Control) clock(domain string) (*engine.Clock, error) {
	switch domain {
	case "cluster":
		return c.sys.clusterClock, nil
	case "icn":
		return c.sys.icnClock, nil
	case "cache":
		return c.sys.cacheClock, nil
	case "dram":
		return c.sys.dramClock, nil
	case "master":
		return c.sys.masterClock, nil
	}
	return nil, fmt.Errorf("cycle: unknown clock domain %q", domain)
}

// Period returns a domain's current period (0 when gated off).
func (c *Control) Period(domain string) (int64, error) {
	clk, err := c.clock(domain)
	if err != nil {
		return 0, err
	}
	return clk.Period(), nil
}

// SetPeriod changes a domain's frequency at the current sample time.
func (c *Control) SetPeriod(domain string, period int64) error {
	clk, err := c.clock(domain)
	if err != nil {
		return err
	}
	if period <= 0 {
		return fmt.Errorf("cycle: period must be positive")
	}
	clk.SetPeriod(c.now, period)
	c.sys.wakeAll(c.now)
	return nil
}

// Disable gates a domain off.
func (c *Control) Disable(domain string) error {
	clk, err := c.clock(domain)
	if err != nil {
		return err
	}
	clk.Disable(c.now)
	return nil
}

// Enable restores a gated domain.
func (c *Control) Enable(domain string) error {
	clk, err := c.clock(domain)
	if err != nil {
		return err
	}
	clk.Enable(c.now)
	c.sys.wakeAll(c.now)
	return nil
}

// Stop ends the simulation from the plug-in.
func (c *Control) Stop() { c.sys.Sched.Stop() }

// livePeriod is the period to measure a span of time in when it may fall
// inside a gate: the clock's own, or the domain's nominal one while it is
// gated off and has none. Package deliveries, the watchdog and plug-in
// samples are scheduler events, not clock edges, so they fire during a gate.
func livePeriod(clk *engine.Clock, nominal int64) engine.Time {
	if p := clk.Period(); p > 0 {
		return p
	}
	return nominal
}

func (s *System) wakeAll(now engine.Time) {
	s.clusterMA.Wake(now)
	s.icnMA.Wake(now)
	s.cacheMA.Wake(now)
	s.masterMA.Wake(now)
}

// ActivityPlugin is the activity plug-in interface of Fig. 3: it reads the
// instruction and activity counters at regular intervals of simulated time
// and may control the machine through the Control API (e.g. a DVFS or
// thermal-management policy).
type ActivityPlugin interface {
	Name() string
	// IntervalCycles is the sampling period in cluster cycles.
	IntervalCycles() int64
	// Sample observes the machine and optionally adjusts it.
	Sample(snap *Snapshot, ctl *Control)
}

type pluginBinding struct {
	plugin ActivityPlugin
}

// AddActivityPlugin registers a plug-in; it starts sampling when Run is
// called.
func (s *System) AddActivityPlugin(p ActivityPlugin) {
	s.plugins = append(s.plugins, &pluginBinding{plugin: p})
}

func (pb *pluginBinding) scheduleNext(s *System, now engine.Time) {
	interval := pb.plugin.IntervalCycles()
	if interval <= 0 {
		return
	}
	at := now + interval*livePeriod(s.clusterClock, s.Cfg.ClusterPeriod)
	s.Sched.ScheduleFunc(at, engine.PrioStop-1, func(t engine.Time) {
		if s.Sched.Stopped() {
			return
		}
		snap := &Snapshot{Now: t, Cycle: s.cycleOffset + s.clusterClock.Cycle(t),
			Stats: s.Stats, AliveTCUs: s.aliveTCUs}
		pb.plugin.Sample(snap, &Control{sys: s, now: t})
		pb.scheduleNext(s, t)
	})
}
