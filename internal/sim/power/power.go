// Package power implements XMTSim's power estimation (paper §III-F): the
// power output is computed as a function of the activity counters. The
// model is a lumped per-event energy model — each committed ALU/MDU/FPU
// operation, memory access, ICN hop, cache access and DRAM access costs a
// configured energy, and each cluster contributes static leakage — sampled
// over activity-plug-in windows so a dynamic power/thermal manager can act
// on it at runtime.
package power

import (
	"xmtgo/internal/config"
	"xmtgo/internal/sim/stats"
)

// NominalTickSeconds maps the engine's abstract ticks onto wall-clock time
// for power computation: 0.125 ns per tick makes the default 8-tick cluster
// period a 1 GHz clock.
const NominalTickSeconds = 0.125e-9

// Model converts activity-counter deltas into watts. It holds only the
// machine configuration: the counters it differences come in as snapshots,
// so every caller keeps its own previous snapshot and window.
type Model struct {
	cfg *config.Config
}

// New creates a power model for the machine configuration.
func New(cfg *config.Config) *Model {
	return &Model{cfg: cfg}
}

// Sample is one power report.
type Sample struct {
	WindowSeconds float64
	// PerCluster dynamic+static watts, indexed by cluster.
	PerCluster []float64
	// Uncore covers ICN, shared cache and DRAM dynamic power plus global
	// static power.
	Uncore float64
	// Total watts.
	Total float64
}

// Sample computes power over the window between two counter snapshots of
// one run; a nil prev stands for the all-zero counters of a run's start.
// windowTicks is the elapsed simulated time in engine ticks.
func (m *Model) Sample(prev, cur *stats.Snapshot, windowTicks int64) Sample {
	if prev == nil {
		prev = &stats.Snapshot{Clusters: make([]stats.ClusterRow, len(cur.Clusters))}
	}
	sec := float64(windowTicks) * NominalTickSeconds
	if sec <= 0 {
		sec = NominalTickSeconds
	}
	out := Sample{WindowSeconds: sec, PerCluster: make([]float64, len(cur.Clusters))}

	for i, c := range cur.Clusters {
		p := prev.Clusters[i]
		nJ := float64(c.ALUOps-p.ALUOps)*m.cfg.EnergyALU +
			float64(c.FPUOps-p.FPUOps)*m.cfg.EnergyFPU +
			float64(c.MDUOps-p.MDUOps)*m.cfg.EnergyMDU +
			float64(c.MemOps-p.MemOps)*m.cfg.EnergyMem
		out.PerCluster[i] = nJ*1e-9/sec + m.cfg.StaticWattsPerCluster
		out.Total += out.PerCluster[i]
	}

	cm, pm := &cur.Memory, &prev.Memory
	uncoreNJ := float64(cm.ICNHops-pm.ICNHops)*m.cfg.EnergyICNHop +
		float64((cm.CacheHits+cm.CacheMisses)-(pm.CacheHits+pm.CacheMisses))*m.cfg.EnergyCache +
		float64(cm.DRAMTotal-pm.DRAMTotal)*m.cfg.EnergyDRAM
	out.Uncore = uncoreNJ*1e-9/sec + m.cfg.StaticWattsOther
	out.Total += out.Uncore
	return out
}
