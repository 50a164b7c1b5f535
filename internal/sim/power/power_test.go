package power

import (
	"math"
	"testing"

	"xmtgo/internal/config"
	"xmtgo/internal/isa"
	"xmtgo/internal/sim/stats"
)

func TestPowerSampleMath(t *testing.T) {
	cfg := config.FPGA64()
	m := New(&cfg)
	c := stats.NewCollector(cfg.Clusters, cfg.CacheModules, cfg.DRAMPorts)

	// Idle window: static power only.
	ticks := int64(8000) // 1000 cycles * 8 ticks = 1 µs at the nominal clock
	idle := c.Snapshot(0, 0)
	s := m.Sample(nil, idle, ticks)
	wantStatic := float64(cfg.Clusters)*cfg.StaticWattsPerCluster + cfg.StaticWattsOther
	if math.Abs(s.Total-wantStatic) > 1e-9 {
		t.Fatalf("idle power %.3f, want static %.3f", s.Total, wantStatic)
	}

	// Busy window: cluster 0 does 1000 ALU ops.
	c.Cluster[0].ByUnit[isa.UnitALU] = 1000
	busy := c.Snapshot(1000, ticks)
	s = m.Sample(idle, busy, ticks)
	sec := float64(ticks) * NominalTickSeconds
	wantDyn := 1000 * cfg.EnergyALU * 1e-9 / sec
	got := s.PerCluster[0] - cfg.StaticWattsPerCluster
	if math.Abs(got-wantDyn) > 1e-9 {
		t.Fatalf("cluster 0 dynamic %.4f, want %.4f", got, wantDyn)
	}

	// Deltas: a third sample with no new activity is static again.
	s = m.Sample(busy, c.Snapshot(2000, 2*ticks), ticks)
	if math.Abs(s.Total-wantStatic) > 1e-9 {
		t.Fatalf("delta accounting broken: %.3f", s.Total)
	}
}

func TestUncorePower(t *testing.T) {
	cfg := config.FPGA64()
	m := New(&cfg)
	c := stats.NewCollector(cfg.Clusters, cfg.CacheModules, cfg.DRAMPorts)
	c.ICNHops = 1000
	c.CacheHits[0] = 500
	c.DRAMAccesses[0] = 100
	s := m.Sample(nil, c.Snapshot(1000, 8000), 8000)
	sec := 8000 * NominalTickSeconds
	wantDyn := (1000*cfg.EnergyICNHop + 500*cfg.EnergyCache + 100*cfg.EnergyDRAM) * 1e-9 / sec
	got := s.Uncore - cfg.StaticWattsOther
	if math.Abs(got-wantDyn) > 1e-9 {
		t.Fatalf("uncore dynamic %.4f, want %.4f", got, wantDyn)
	}
}

func TestThermalManagerConstruction(t *testing.T) {
	cfg := config.Chip1024()
	tm, err := NewThermalManager(&cfg, 1000, 85)
	if err != nil {
		t.Fatal(err)
	}
	if tm.IntervalCycles() != 1000 || tm.Name() == "" {
		t.Fatal("plugin interface wrong")
	}
	g := tm.Grid()
	if g.W*g.H < cfg.Clusters {
		t.Fatalf("grid %dx%d too small for %d clusters", g.W, g.H, cfg.Clusters)
	}
	if tm.Throttled() {
		t.Fatal("must start unthrottled")
	}
}
