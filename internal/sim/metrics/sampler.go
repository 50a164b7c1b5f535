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
// (paper §III-B / Fig. 3) that snapshots the counters every Interval cluster
// cycles — at a point where every outbox of the sample tick has committed,
// so the collector is exactly the serial simulator's state — and appends one
// Sample per interval: the difference of this boundary's snapshot and the
// previous one's. It never writes simulator state, so attaching it cannot
// perturb results.
type Sampler struct {
	cfg      *config.Config
	interval int64

	samples []Sample

	// prev is the counter snapshot of the previous boundary; nil before the
	// first, when the segment's collector started empty.
	prev *stats.Snapshot

	lastCycle int64 // cycle of the last emitted boundary
	lastTicks int64

	// instrBase is the instructions retired before the segment started
	// (System.StartInstrs), so /status counts from program start.
	instrBase uint64

	// lastProgressCycle is the most recent boundary at which the window
	// retired at least one instruction — the basis for the /status
	// watchdog-slack estimate (sample-interval granularity).
	lastProgressCycle int64

	tm *power.ThermalManager // non-nil when the thermal plug-in is attached

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
// so the resume offsets are reflected in sample cycles and /status
// instructions. Returns nil when interval <= 0.
func Attach(sys *cycle.System, interval int64) *Sampler {
	if interval <= 0 {
		return nil
	}
	sp := NewSampler(sys.Cfg, interval, sys.StartCycle())
	sp.instrBase = sys.StartInstrs()
	sp.evlog = sys.EventLog
	sp.windows = sys.WindowStats
	sys.AddActivityPlugin(sp)
	return sp
}

// AttachThermal connects the power/thermal plug-in: subsequent samples
// carry per-interval energy and the thermal grid's peak/mean temperature.
// The energy is the stateless power model over the sampler's own window, so
// it never interferes with the manager's DVFS decisions.
func (sp *Sampler) AttachThermal(tm *power.ThermalManager) { sp.tm = tm }

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
	cur := st.Snapshot(cyc, ticks)
	if final && cyc <= sp.lastCycle && len(sp.samples) > 0 {
		// The run ended on the last boundary; nothing new to record. (The
		// publish below still runs so /status shows the final state.)
		if sp.srv != nil {
			sp.publish(&sp.samples[len(sp.samples)-1], cur, aliveTCUs, final)
		}
		return
	}

	s := diff(sp.prev, cur)
	s.WindowCycles = cyc - sp.lastCycle
	s.IPC = ratioI(s.Instrs, s.WindowCycles)
	s.AliveTCUs = aliveTCUs
	if sp.tm != nil {
		ps := power.New(sp.cfg).Sample(sp.prev, cur, ticks-sp.lastTicks)
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
		sp.publish(&sp.samples[len(sp.samples)-1], cur, aliveTCUs, final)
	}
}

// diff is the Sample of the window between two counter snapshots of one
// run, nil prev standing for the all-zero counters of the run's start: the
// field-wise difference of the additive counters and the window means of
// the histograms. Cycle, Ticks and DecommissionedTCUs are cur's; the window
// length, IPC, live TCUs and power are the caller's to fill in.
func diff(prev, cur *stats.Snapshot) Sample {
	if prev == nil {
		prev = &stats.Snapshot{}
	}
	pi, ci := &prev.Instructions, &cur.Instructions
	ps, cs := &prev.Stalls, &cur.Stalls
	pm, cm := &prev.Memory, &cur.Memory
	s := Sample{
		Cycle: cur.Cycle, Ticks: cur.Ticks,
		Instrs:       ci.Total - pi.Total,
		MasterInstrs: ci.Master - pi.Master,
		TCUInstrs:    ci.TCU - pi.TCU,

		StallMem:     cs.Mem - ps.Mem,
		StallFPUMDU:  cs.FPUMDU - ps.FPUMDU,
		StallPS:      cs.PS - ps.PS,
		StallICNSend: cs.ICNSend - ps.ICNSend,

		CacheHits:      cm.CacheHits - pm.CacheHits,
		CacheMisses:    cm.CacheMisses - pm.CacheMisses,
		CacheQueueFull: cm.QueueFull - pm.QueueFull,
		QueueDepthMean: histMean(&pm.QueueDepth, &cm.QueueDepth),

		ICNTraversals: cm.ICNTraversals - pm.ICNTraversals,
		ICNHops:       cm.ICNHops - pm.ICNHops,
		DRAMAccesses:  cm.DRAMTotal - pm.DRAMTotal,

		PsOps:           cur.PrefixSum.Ops - prev.PrefixSum.Ops,
		PsLatencyMean:   histMean(&prev.PrefixSum.Latency, &cur.PrefixSum.Latency),
		LoadLatencyMean: histMean(&pm.LoadLatency, &cm.LoadLatency),

		Spawns:         cur.SpawnJoin.Spawns - prev.SpawnJoin.Spawns,
		VirtualThreads: cur.SpawnJoin.VirtualThreads - prev.SpawnJoin.VirtualThreads,

		DecommissionedTCUs: cur.Faults.Decommissioned,
		FaultsInjected:     cur.Faults.Injected - prev.Faults.Injected,
		Redispatches:       cur.Faults.Redispatches - prev.Faults.Redispatches,
	}
	s.CacheHitRate = ratio(s.CacheHits, s.CacheHits+s.CacheMisses)
	return s
}

// histMean is the mean of the observations a histogram took between two
// snapshots.
func histMean(prev, cur *stats.HistSnapshot) float64 {
	return ratio(cur.Sum-prev.Sum, cur.Count-prev.Count)
}

// publish hands the server an immutable bundle: the interval sample (by
// value), the boundary's counter snapshot, and the status block read from
// it. The server only ever reads these, so the HTTP goroutines never touch
// live simulator state.
func (sp *Sampler) publish(s *Sample, cur *stats.Snapshot, aliveTCUs int, done bool) {
	smp := *s
	status := Status{
		Cycle:              cur.Cycle,
		Ticks:              cur.Ticks,
		Instrs:             sp.instrBase + cur.Instructions.Total,
		AliveTCUs:          aliveTCUs,
		DecommissionedTCUs: cur.Faults.Decommissioned,
		FaultsInjected:     cur.Faults.Injected,
		WatchdogCycles:     sp.cfg.WatchdogCycles,
		Done:               done,
	}
	if sp.cfg.WatchdogCycles > 0 {
		status.WatchdogSlack = sp.cfg.WatchdogCycles - (cur.Cycle - sp.lastProgressCycle)
	}
	if sp.evlog != nil {
		if l := sp.evlog(); l != nil {
			status.TraceDropped = l.Dropped
		}
	}
	p := &Published{
		Status:   status,
		Counters: cur,
		Sample:   &smp,
		Job:      sp.job,
	}
	if sp.windows != nil {
		ws := sp.windows()
		p.Windows = &ws
	}
	sp.srv.Publish(p)
}
