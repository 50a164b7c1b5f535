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

// Model converts activity-counter deltas into watts.
type Model struct {
	cfg *config.Config

	// prev holds the counter values at the previous sample.
	prevCluster []stats.ClusterStats
	prevICNHops uint64
	prevCacheHM uint64
	prevDRAM    uint64
}

// New creates a power model for the machine configuration.
func New(cfg *config.Config) *Model {
	return &Model{cfg: cfg, prevCluster: make([]stats.ClusterStats, cfg.Clusters)}
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

// Sample computes power over the window since the previous call.
// windowTicks is the elapsed simulated time in engine ticks.
func (m *Model) Sample(c *stats.Collector, windowTicks int64) Sample {
	sec := float64(windowTicks) * NominalTickSeconds
	if sec <= 0 {
		sec = NominalTickSeconds
	}
	out := Sample{WindowSeconds: sec, PerCluster: make([]float64, len(m.prevCluster))}

	for i := range m.prevCluster {
		cur := c.Cluster[i]
		prev := m.prevCluster[i]
		nJ := float64(cur.ALUOps()-prev.ALUOps())*m.cfg.EnergyALU +
			float64(cur.FPUOps()-prev.FPUOps())*m.cfg.EnergyFPU +
			float64(cur.MDUOps()-prev.MDUOps())*m.cfg.EnergyMDU +
			float64(cur.MemOps()-prev.MemOps())*m.cfg.EnergyMem
		m.prevCluster[i] = cur
		out.PerCluster[i] = nJ*1e-9/sec + m.cfg.StaticWattsPerCluster
		out.Total += out.PerCluster[i]
	}

	hops := c.ICNHops
	var hits, misses uint64
	hits, misses = c.TotalCacheHits()
	cacheAcc := hits + misses
	var dram uint64
	for _, d := range c.DRAMAccesses {
		dram += d
	}
	uncoreNJ := float64(hops-m.prevICNHops)*m.cfg.EnergyICNHop +
		float64(cacheAcc-m.prevCacheHM)*m.cfg.EnergyCache +
		float64(dram-m.prevDRAM)*m.cfg.EnergyDRAM
	m.prevICNHops, m.prevCacheHM, m.prevDRAM = hops, cacheAcc, dram

	out.Uncore = uncoreNJ*1e-9/sec + m.cfg.StaticWattsOther
	out.Total += out.Uncore
	return out
}
