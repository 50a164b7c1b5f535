package metrics

import (
	"xmtgo/internal/config"
	"xmtgo/internal/sim/cycle"
	"xmtgo/internal/sim/engine"
	"xmtgo/internal/sim/power"
	"xmtgo/internal/sim/stats"
	"xmtgo/internal/sim/trace"
)

// DefaultSampleCycles is the sampler period used when live serving needs a
// publish cadence and the configuration names none.
const DefaultSampleCycles = 10000

// Sampler is the deterministic interval sampler: an activity plug-in
// (paper §III-B / Fig. 3) that reads the counters every Interval cluster
// cycles — at a point where every outbox of the sample tick has committed,
// so the collector is exactly the serial simulator's state — and appends one
// windowed-delta Sample per interval. It never writes simulator state, so
// attaching it cannot perturb results.
type Sampler struct {
	cfg      *config.Config
	interval int64

	samples []Sample

	// prev holds the cumulative counter values at the previous boundary.
	prev prevState

	lastCycle int64 // cycle of the last emitted boundary
	lastTicks int64

	// lastProgressCycle is the most recent boundary at which the window
	// retired at least one instruction — the basis for the /status
	// watchdog-slack estimate (sample-interval granularity).
	lastProgressCycle int64

	tm *power.ThermalManager // non-nil when the thermal plug-in is attached
	pm *power.Model          // sampler-private power model (own delta state)

	srv *Server // non-nil when publishing to a live metrics server
	job string  // daemon job id stamped on published bundles (may be empty)

	// evlog, when set, reads the run's structured trace log so /status and
	// /metrics can surface its dropped-event count (satellite of the
	// service-observability work: silent ring truncation must be scrapable).
	evlog func() *trace.EventLog

	// windows, when set, reads the cluster domain's window counts for the
	// xmt_engine_windows_total family. They describe how the host got
	// through the cycles, so they go to /metrics only — never into samples,
	// snapshots or the counters report.
	windows func() engine.WindowStats
}

type prevState struct {
	masterInstrs, tcuInstrs                uint64
	stallMem, stallFPU, stallPS, stallSend uint64
	cacheHits, cacheMisses, queueFull      uint64
	qDepthCount, qDepthSum                 uint64
	icnTraversals, icnHops, dram           uint64
	psOps, psLatCount, psLatSum            uint64
	loadLatCount, loadLatSum               uint64
	spawns, vthreads, faults, redispatches uint64
}

// NewSampler creates a sampler for one run. startCycle is the cycle the
// system starts counting from (System.StartCycle — non-zero after a
// checkpoint resume). interval <= 0 disables sampling.
func NewSampler(cfg *config.Config, interval, startCycle int64) *Sampler {
	return &Sampler{
		cfg:               cfg,
		interval:          interval,
		lastCycle:         startCycle,
		lastProgressCycle: startCycle,
	}
}

// Attach builds a sampler and registers it on sys. Call after RestoreState
// so the resume offset is reflected in sample cycles. Returns nil when
// interval <= 0.
func Attach(sys *cycle.System, interval int64) *Sampler {
	if interval <= 0 {
		return nil
	}
	sp := NewSampler(sys.Cfg, interval, sys.StartCycle())
	sp.evlog = sys.EventLog
	sp.windows = sys.WindowStats
	sys.AddActivityPlugin(sp)
	return sp
}

// AttachThermal connects the power/thermal plug-in: subsequent samples
// carry per-interval energy and the thermal grid's peak/mean temperature.
// The sampler uses its own power.Model instance, so its energy accounting
// never interferes with the manager's DVFS decisions.
func (sp *Sampler) AttachThermal(tm *power.ThermalManager) {
	sp.tm = tm
	sp.pm = power.New(sp.cfg)
}

// SetServer publishes every interval boundary to a live metrics server.
func (sp *Sampler) SetServer(srv *Server) { sp.srv = srv }

// SetJob labels published bundles with a daemon job id so /stream?job=ID
// subscribers receive only this run's samples.
func (sp *Sampler) SetJob(id string) { sp.job = id }

// Samples returns the recorded time series.
func (sp *Sampler) Samples() []Sample { return sp.samples }

// Header describes the sample stream for the JSONL/CSV exporters.
func (sp *Sampler) Header() Header {
	return Header{
		Schema:   SampleSchema,
		Config:   sp.cfg.Name,
		Clusters: sp.cfg.Clusters,
		TCUs:     sp.cfg.TCUs(),
		Interval: sp.interval,
	}
}

// Name implements cycle.ActivityPlugin.
func (sp *Sampler) Name() string { return "interval-sampler" }

// IntervalCycles implements cycle.ActivityPlugin.
func (sp *Sampler) IntervalCycles() int64 { return sp.interval }

// Sample implements cycle.ActivityPlugin: one boundary every Interval
// cluster cycles, on the scheduler goroutine, after all commits at this
// timestamp.
func (sp *Sampler) Sample(snap *cycle.Snapshot, ctl *cycle.Control) {
	sp.boundary(snap.Cycle, snap.Now, snap.Stats, snap.AliveTCUs, false)
}

// Finalize records the final (possibly partial) window after the run ends.
// Drivers call it with Result.Cycles/Ticks before exporting. A run that
// ends exactly on a boundary adds nothing.
func (sp *Sampler) Finalize(cyc, ticks int64, st *stats.Collector, aliveTCUs int) {
	sp.boundary(cyc, ticks, st, aliveTCUs, true)
}

func (sp *Sampler) boundary(cyc, ticks int64, st *stats.Collector, aliveTCUs int, final bool) {
	if final && cyc <= sp.lastCycle && len(sp.samples) > 0 {
		// The run ended on the last boundary; nothing new to record. (The
		// publish below still runs so /status shows the final state.)
		if sp.srv != nil {
			sp.publish(&sp.samples[len(sp.samples)-1], cyc, ticks, st, aliveTCUs, final)
		}
		return
	}

	var cur prevState
	cur.masterInstrs, cur.tcuInstrs = st.MasterInstrs, st.TCUInstrs()
	for i := range st.Cluster {
		cs := &st.Cluster[i]
		cur.stallMem += cs.MemWaitCycles
		cur.stallFPU += cs.FPUWaitCycles
		cur.stallPS += cs.PSWaitCycles
		cur.stallSend += cs.SendStallCycles
	}
	cur.cacheHits, cur.cacheMisses = st.TotalCacheHits()
	for _, n := range st.CacheQueueFull {
		cur.queueFull += n
	}
	cur.qDepthCount, cur.qDepthSum = st.CacheQueueDepth.Count, st.CacheQueueDepth.Sum
	cur.icnTraversals, cur.icnHops = st.ICNTraversals, st.ICNHops
	for _, d := range st.DRAMAccesses {
		cur.dram += d
	}
	cur.psOps = st.PsOps
	cur.psLatCount, cur.psLatSum = st.PSLatency.Count, st.PSLatency.Sum
	cur.loadLatCount, cur.loadLatSum = st.LoadLatency.Count, st.LoadLatency.Sum
	cur.spawns, cur.vthreads = st.SpawnCount, st.VirtualThreads
	cur.faults, cur.redispatches = st.FaultsInjected(), st.Redispatches

	p := &sp.prev
	window := cyc - sp.lastCycle
	s := Sample{
		Cycle: cyc, Ticks: ticks, WindowCycles: window,
		Instrs:       (cur.masterInstrs - p.masterInstrs) + (cur.tcuInstrs - p.tcuInstrs),
		MasterInstrs: cur.masterInstrs - p.masterInstrs,
		TCUInstrs:    cur.tcuInstrs - p.tcuInstrs,

		StallMem:     cur.stallMem - p.stallMem,
		StallFPUMDU:  cur.stallFPU - p.stallFPU,
		StallPS:      cur.stallPS - p.stallPS,
		StallICNSend: cur.stallSend - p.stallSend,

		CacheHits:      cur.cacheHits - p.cacheHits,
		CacheMisses:    cur.cacheMisses - p.cacheMisses,
		CacheQueueFull: cur.queueFull - p.queueFull,

		ICNTraversals: cur.icnTraversals - p.icnTraversals,
		ICNHops:       cur.icnHops - p.icnHops,
		DRAMAccesses:  cur.dram - p.dram,

		PsOps: cur.psOps - p.psOps,

		Spawns:         cur.spawns - p.spawns,
		VirtualThreads: cur.vthreads - p.vthreads,

		AliveTCUs:          aliveTCUs,
		DecommissionedTCUs: st.TCUsDecommissioned,
		FaultsInjected:     cur.faults - p.faults,
		Redispatches:       cur.redispatches - p.redispatches,
	}
	s.IPC = ratioI(s.Instrs, window)
	s.CacheHitRate = ratio(s.CacheHits, s.CacheHits+s.CacheMisses)
	s.QueueDepthMean = ratio(cur.qDepthSum-p.qDepthSum, cur.qDepthCount-p.qDepthCount)
	s.PsLatencyMean = ratio(cur.psLatSum-p.psLatSum, cur.psLatCount-p.psLatCount)
	s.LoadLatencyMean = ratio(cur.loadLatSum-p.loadLatSum, cur.loadLatCount-p.loadLatCount)

	if sp.tm != nil {
		ps := sp.pm.Sample(st, ticks-sp.lastTicks)
		grid := sp.tm.Grid()
		s.Power = &PowerSample{
			EnergyJ:   ps.Total * ps.WindowSeconds,
			Watts:     ps.Total,
			PeakTempC: grid.Max(),
			MeanTempC: grid.Mean(),
			Throttled: sp.tm.Throttled(),
		}
	}

	if s.Instrs > 0 {
		sp.lastProgressCycle = cyc
	}
	sp.prev = cur
	sp.lastCycle, sp.lastTicks = cyc, ticks
	sp.samples = append(sp.samples, s)

	if sp.srv != nil {
		sp.publish(&sp.samples[len(sp.samples)-1], cyc, ticks, st, aliveTCUs, final)
	}
}

// publish hands the server an immutable bundle: the interval sample (by
// value), a freshly built counter snapshot, and the status block. The
// server only ever reads these, so the HTTP goroutines never touch live
// simulator state.
func (sp *Sampler) publish(s *Sample, cyc, ticks int64, st *stats.Collector, aliveTCUs int, done bool) {
	smp := *s
	status := Status{
		Cycle:              cyc,
		Ticks:              ticks,
		Instrs:             st.TotalInstrs(),
		AliveTCUs:          aliveTCUs,
		DecommissionedTCUs: st.TCUsDecommissioned,
		FaultsInjected:     st.FaultsInjected(),
		WatchdogCycles:     sp.cfg.WatchdogCycles,
		Done:               done,
	}
	if sp.cfg.WatchdogCycles > 0 {
		status.WatchdogSlack = sp.cfg.WatchdogCycles - (cyc - sp.lastProgressCycle)
	}
	if sp.evlog != nil {
		if l := sp.evlog(); l != nil {
			status.TraceDropped = l.Dropped
		}
	}
	p := &Published{
		Status:   status,
		Counters: st.Snapshot(cyc, ticks),
		Sample:   &smp,
		Job:      sp.job,
	}
	if sp.windows != nil {
		ws := sp.windows()
		p.Windows = &ws
	}
	sp.srv.Publish(p)
}
