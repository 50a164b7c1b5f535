package power

import (
	"math"

	"xmtgo/internal/config"
	"xmtgo/internal/sim/cycle"
	"xmtgo/internal/sim/engine"
	"xmtgo/internal/sim/stats"
	"xmtgo/internal/sim/thermal"
)

// ThermalManager is a ready-made activity plug-in that closes the loop the
// paper's §III-F describes as unique to XMTSim: it samples the activity
// counters at a fixed interval, converts them to power, advances the
// thermal grid, and throttles the cluster clock domain when the hottest
// cell crosses a threshold (restoring the nominal frequency once it cools
// below the threshold minus a hysteresis band).
type ThermalManager struct {
	cfg   *config.Config
	model *Model
	grid  *thermal.Grid

	Interval      int64   // sampling interval in cluster cycles
	ThresholdC    float64 // throttle above this temperature
	HysteresisC   float64 // un-throttle below Threshold-Hysteresis
	SlowPeriod    int64   // cluster period while throttled
	NominalPeriod int64

	gridW, gridH int
	prev         *stats.Snapshot // counters at the previous sample; nil before the first
	lastNow      engine.Time
	throttled    bool

	// History records one entry per sample for analysis and plots.
	History []ManagerSample
}

// ManagerSample is one recorded control step.
type ManagerSample struct {
	Cycle     int64
	MaxTemp   float64
	MeanTemp  float64
	TotalWatt float64
	Throttled bool
}

// NewThermalManager builds a manager with a near-square cluster grid.
func NewThermalManager(cfg *config.Config, intervalCycles int64, thresholdC float64) (*ThermalManager, error) {
	w := int(math.Ceil(math.Sqrt(float64(cfg.Clusters))))
	h := (cfg.Clusters + w - 1) / w
	grid, err := thermal.NewGrid(w, h, thermal.DefaultParams())
	if err != nil {
		return nil, err
	}
	return &ThermalManager{
		cfg:           cfg,
		model:         New(cfg),
		grid:          grid,
		Interval:      intervalCycles,
		ThresholdC:    thresholdC,
		HysteresisC:   3,
		SlowPeriod:    cfg.ClusterPeriod * 2,
		NominalPeriod: cfg.ClusterPeriod,
		gridW:         w,
		gridH:         h,
	}, nil
}

// Grid exposes the thermal grid (for floorplan visualization).
func (tm *ThermalManager) Grid() *thermal.Grid { return tm.grid }

// Throttled reports the current control state.
func (tm *ThermalManager) Throttled() bool { return tm.throttled }

// Name implements cycle.ActivityPlugin.
func (tm *ThermalManager) Name() string { return "thermal-manager" }

// IntervalCycles implements cycle.ActivityPlugin.
func (tm *ThermalManager) IntervalCycles() int64 { return tm.Interval }

// Sample implements cycle.ActivityPlugin.
func (tm *ThermalManager) Sample(snap *cycle.Snapshot, ctl *cycle.Control) {
	cur := snap.Stats.Snapshot(snap.Cycle, snap.Now)
	ps := tm.model.Sample(tm.prev, cur, snap.Now-tm.lastNow)
	tm.prev, tm.lastNow = cur, snap.Now

	// Spread per-cluster power over the grid; uncore power is distributed
	// uniformly (the ICN and caches interleave across the die).
	cells := make([]float64, tm.gridW*tm.gridH)
	for i, w := range ps.PerCluster {
		cells[i] += w
	}
	share := ps.Uncore / float64(len(cells))
	for i := range cells {
		cells[i] += share
	}
	if err := tm.grid.Step(cells, ps.WindowSeconds); err != nil {
		return
	}

	max := tm.grid.Max()
	switch {
	case !tm.throttled && max > tm.ThresholdC:
		if err := ctl.SetPeriod("cluster", tm.SlowPeriod); err == nil {
			tm.throttled = true
		}
	case tm.throttled && max < tm.ThresholdC-tm.HysteresisC:
		if err := ctl.SetPeriod("cluster", tm.NominalPeriod); err == nil {
			tm.throttled = false
		}
	}
	tm.History = append(tm.History, ManagerSample{
		Cycle:     snap.Cycle,
		MaxTemp:   max,
		MeanTemp:  tm.grid.Mean(),
		TotalWatt: ps.Total,
		Throttled: tm.throttled,
	})
}
