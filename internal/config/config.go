// Package config holds the simulated-machine configuration. XMTSim is
// "highly configurable … including number of TCUs, the cache size, DRAM
// bandwidth and relative clock frequencies of components" (paper §III); this
// package models that: every architectural knob is a field, configurations
// load from key=value files and command-line overrides, and the two built-in
// machines of the paper — the 64-TCU Paraleap FPGA prototype and the
// envisioned 1024-TCU XMT chip — ship as presets.
package config

import (
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"xmtgo/internal/sim/fault"
)

// Config describes one simulated XMT machine.
type Config struct {
	Name string

	// Parallel core organization (Fig. 1).
	Clusters       int // number of TCU clusters
	TCUsPerCluster int // lightweight cores per cluster
	FPUsPerCluster int // floating-point units shared inside a cluster
	MDUsPerCluster int // multiply/divide units shared inside a cluster

	// Per-TCU latency-tolerance resources.
	PrefetchBufEntries int // TCU prefetch buffer slots (paper §IV-C, [8])

	// Cluster read-only cache (constant data across threads).
	ROCacheLines    int   // lines per cluster read-only cache
	ROCacheLineSize int   // bytes per line (power of two)
	ROCacheLatency  int64 // hit latency, cluster cycles

	// Shared first-level cache, partitioned into mutually exclusive
	// modules that hash the address space.
	CacheModules     int   // number of shared cache modules
	CacheLinesPerMod int   // lines per module
	CacheLineSize    int   // bytes per line (power of two)
	CacheAssoc       int   // set associativity
	CacheHitLatency  int64 // module service latency per request, cache cycles
	CacheQueue       int   // request queue depth per module

	// DRAM: modeled as simple latency behind ports (paper §III: "DRAM is
	// modeled as simple latency").
	DRAMPorts     int   // off-chip memory channels
	DRAMLatency   int64 // DRAM cycles per access
	DRAMGapCycles int64 // minimum gap between accesses on one port (1/bandwidth)

	// Interconnection network (mesh-of-trees): per-traversal base latency
	// plus per-cluster injection limit per ICN cycle.
	ICNBaseLatency  int64 // ICN cycles for an uncontended traversal
	ICNInjectPerCyc int   // packages a cluster may inject per ICN cycle
	ICNAcceptPerCyc int   // packages a cache module may accept per ICN cycle

	// Asynchronous interconnect (paper §III-F, following [39]): packages
	// traverse with continuous-time handshake delays instead of clocked
	// hops — possible because the simulator is discrete-event, not
	// discrete-time. Latencies are raw engine ticks, unquantized.
	ICNAsync         bool
	ICNAsyncHopTicks int64 // handshake delay per tree hop
	ICNAsyncGapTicks int64 // min spacing between injections at one port

	// Master TCU.
	MasterCacheLines    int
	MasterCacheLineSize int
	MasterCacheLatency  int64
	MasterIssueWidth    int // instructions the master may issue per cycle

	// Spawn hardware.
	SpawnOverhead int64 // cycles to broadcast a spawn region and start TCUs
	JoinOverhead  int64 // cycles to detect all-TCUs-blocked and resume master
	PSLatency     int64 // global prefix-sum unit one-way latency, cluster cycles
	PSPerCycle    int   // prefix-sum requests the combining hardware retires per cycle

	// Clock domain periods in abstract ticks (relative frequencies).
	ClusterPeriod int64
	ICNPeriod     int64
	CachePeriod   int64
	DRAMPeriod    int64
	MasterPeriod  int64

	// Memory.
	MemBytes uint32 // simulated shared-memory size

	// Determinism.
	Seed uint64

	// Fault injection and resilience (docs/ROBUSTNESS.md). FaultPlan is a
	// fault spec in internal/sim/fault grammar ("" disables injection);
	// FaultSeed seeds the per-kind fault streams. WatchdogCycles is the
	// no-retire progress watchdog period in cluster cycles (0 disables):
	// if no instruction retires for that long while the program has not
	// halted, the run fails with a diagnostic instead of spinning.
	FaultSeed      uint64
	FaultPlan      string
	WatchdogCycles int64

	// Host execution. HostWorkers is the number of host goroutines that
	// tick the cluster shards: 1 runs everything on the scheduler goroutine,
	// N > 1 fans every cluster cycle out to N workers, and 0 (the default)
	// resolves to DefaultHostWorkers. Simulation results are bit-identical
	// for any value.
	HostWorkers int

	// Bounded-lookahead engine (docs/PERF.md). Lookahead is the maximum
	// number of consecutive cluster cycles one scheduler event may cover:
	// 0 derives the window from the minimum cross-cluster round-trip
	// latency, 1 makes every window a single cycle. EngineMode selects the
	// window strategy: EngineWindowed (conservative lockstep, the default;
	// "" means windowed) or EngineOptimistic (speculative free-run with
	// snapshot rollback). Results are bit-identical for every combination.
	Lookahead  int
	EngineMode string

	// Telemetry. SampleCycles is the interval, in cluster cycles, at which
	// the interval sampler snapshots the activity counters (0 disables
	// sampling). Samples are taken at outbox-commit boundaries, so the
	// resulting time series is bit-identical for any HostWorkers value.
	SampleCycles int64

	// FuncBackend selects the functional-mode execution backend
	// (docs/SIMULATOR.md §Functional backends): FuncBackendVM (the
	// direct-threaded bytecode VM in internal/sim/funcvm; the default, what
	// the presets carry and what "" means) or FuncBackendInterp (the
	// per-step ISA interpreter, the conformance oracle). Architectural
	// results are bit-identical for either value.
	FuncBackend string

	// RaceCheck enables xmtsan, the deterministic happens-before race
	// sanitizer in the cycle simulator (docs/ANALYZER.md). Reports are
	// byte-identical for any HostWorkers value; when off, the simulation is
	// untouched (no shadow state is allocated).
	RaceCheck bool

	// Power model parameters (nJ per event; lumped, see internal/sim/power).
	EnergyALU             float64
	EnergyMDU             float64
	EnergyFPU             float64
	EnergyMem             float64
	EnergyICNHop          float64
	EnergyCache           float64
	EnergyDRAM            float64
	StaticWattsPerCluster float64
	StaticWattsOther      float64
}

// DefaultHostWorkers is what HostWorkers = 0 resolves to: the worker count
// that wins on the reference host. One, on the evidence of the 2-vCPU ledger
// (docs/PERF.md §Host-parallel cluster simulation): a cluster-cycle is ~86 ns
// of compute, less than moving its outbox between cores costs, so fanning
// the cluster domain out is an explicit opt-in (host_workers=N).
const DefaultHostWorkers = 1

// hostWorkersNote says what a host_workers value means, for Describe and the
// CLIs' -workers flags.
var hostWorkersNote = fmt.Sprintf("0 = the default = %d; 1 = serial; N > 1 fans the cluster domain out to N host goroutines, an opt-in for hosts where it pays; results identical for any value", DefaultHostWorkers)

// HostWorkersUsage is the help text of the CLIs' -workers flag.
var HostWorkersUsage = "host worker goroutines for the cluster shards (" + hostWorkersNote + ")"

// Engine modes for the bounded-lookahead parallel engine (docs/PERF.md).
const (
	// EngineWindowed runs conservative lockstep windows: every cluster
	// ticks cycle k before any ticks k+1, and a window-closing effect in
	// any cluster truncates the window for all of them.
	EngineWindowed = "windowed"
	// EngineOptimistic lets clusters free-run the whole window
	// independently; clusters that overran the consensus boundary roll
	// back to their window-entry snapshot and replay.
	EngineOptimistic = "optimistic"
)

// Functional-mode backends (docs/SIMULATOR.md §Functional backends).
const (
	// FuncBackendInterp decodes and executes ISA instructions one Step at
	// a time (funcmodel's interpreter): the reference the other executors
	// are held to, selectable but no longer the default.
	FuncBackendInterp = "interp"
	// FuncBackendVM lowers the program once into direct-threaded bytecode
	// and dispatches pre-resolved handlers (internal/sim/funcvm). The
	// default: 4–5× the interpreter's throughput, bit-identical results.
	FuncBackendVM = "vm"
)

// UseFuncVM reports whether functional mode runs on the bytecode VM:
// always, unless the interpreter was asked for by name.
func (c *Config) UseFuncVM() bool { return c.FuncBackend != FuncBackendInterp }

// TCUs returns the total number of parallel TCUs.
func (c *Config) TCUs() int { return c.Clusters * c.TCUsPerCluster }

// Validate checks internal consistency.
func (c *Config) Validate() error {
	type check struct {
		ok  bool
		msg string
	}
	pow2 := func(n int) bool { return n > 0 && n&(n-1) == 0 }
	checks := []check{
		{c.Clusters > 0, "Clusters must be positive"},
		{c.TCUsPerCluster > 0, "TCUsPerCluster must be positive"},
		{c.FPUsPerCluster > 0, "FPUsPerCluster must be positive"},
		{c.MDUsPerCluster > 0, "MDUsPerCluster must be positive"},
		{c.CacheModules > 0, "CacheModules must be positive"},
		{pow2(c.CacheLineSize), "CacheLineSize must be a power of two"},
		{c.CacheLinesPerMod > 0, "CacheLinesPerMod must be positive"},
		{c.CacheAssoc > 0 && c.CacheLinesPerMod%c.CacheAssoc == 0, "CacheAssoc must divide CacheLinesPerMod"},
		{c.CacheQueue > 0, "CacheQueue must be positive"},
		{c.DRAMPorts > 0, "DRAMPorts must be positive"},
		{c.DRAMLatency >= 0, "DRAMLatency must be non-negative"},
		{c.CacheHitLatency >= 0 && c.MasterCacheLatency >= 0 && c.ROCacheLatency >= 0, "cache latencies must be non-negative"},
		{c.DRAMGapCycles >= 1, "DRAMGapCycles must be >= 1"},
		{c.ICNBaseLatency >= 1, "ICNBaseLatency must be >= 1"},
		{!c.ICNAsync || (c.ICNAsyncHopTicks >= 1 && c.ICNAsyncGapTicks >= 1), "async ICN timings must be positive"},
		{c.ICNInjectPerCyc > 0, "ICNInjectPerCyc must be positive"},
		{c.ICNAcceptPerCyc > 0, "ICNAcceptPerCyc must be positive"},
		{c.PrefetchBufEntries >= 0, "PrefetchBufEntries must be non-negative"},
		{c.ROCacheLines >= 0, "ROCacheLines must be non-negative"},
		{c.ROCacheLines == 0 || pow2(c.ROCacheLineSize), "ROCacheLineSize must be a power of two"},
		{c.MasterCacheLines > 0 && pow2(c.MasterCacheLineSize), "master cache geometry invalid"},
		{c.MasterIssueWidth > 0, "MasterIssueWidth must be positive"},
		{c.ClusterPeriod > 0 && c.ICNPeriod > 0 && c.CachePeriod > 0 && c.DRAMPeriod > 0 && c.MasterPeriod > 0, "clock periods must be positive"},
		{c.MemBytes >= 1<<16, "MemBytes too small"},
		{c.SpawnOverhead >= 0 && c.JoinOverhead >= 0 && c.PSLatency >= 1, "spawn/join/ps latencies invalid"},
		{c.PSPerCycle > 0, "PSPerCycle must be positive"},
		{c.HostWorkers >= 0, "HostWorkers must be non-negative"},
		{c.Lookahead >= 0, "Lookahead must be non-negative"},
		{c.EngineMode == "" || c.EngineMode == EngineWindowed || c.EngineMode == EngineOptimistic,
			"EngineMode must be windowed or optimistic"},
		{c.FuncBackend == "" || c.FuncBackend == FuncBackendInterp || c.FuncBackend == FuncBackendVM,
			"FuncBackend must be interp or vm"},
		{c.WatchdogCycles >= 0, "WatchdogCycles must be non-negative"},
		{c.SampleCycles >= 0, "SampleCycles must be non-negative"},
	}
	for _, ch := range checks {
		if !ch.ok {
			return fmt.Errorf("config %q: %s", c.Name, ch.msg)
		}
	}
	if c.FaultPlan != "" {
		if _, err := fault.ParseSpec(c.FaultPlan); err != nil {
			return fmt.Errorf("config %q: fault_plan: %v", c.Name, err)
		}
	}
	return nil
}

// FPGA64 models the 64-TCU Paraleap FPGA prototype the simulator was
// verified against: 8 clusters × 8 TCUs, 8 shared cache modules, modest
// clock ratios.
func FPGA64() Config {
	return Config{
		Name:                "fpga64",
		FuncBackend:         FuncBackendVM,
		Clusters:            8,
		TCUsPerCluster:      8,
		FPUsPerCluster:      1,
		MDUsPerCluster:      1,
		PrefetchBufEntries:  4,
		ROCacheLines:        64,
		ROCacheLineSize:     32,
		ROCacheLatency:      2,
		CacheModules:        8,
		CacheLinesPerMod:    512,
		CacheLineSize:       32,
		CacheAssoc:          2,
		CacheHitLatency:     2,
		CacheQueue:          16,
		DRAMPorts:           1,
		DRAMLatency:         40,
		DRAMGapCycles:       4,
		ICNBaseLatency:      6,
		ICNInjectPerCyc:     1,
		ICNAcceptPerCyc:     2,
		ICNAsyncHopTicks:    3,
		ICNAsyncGapTicks:    6,
		MasterCacheLines:    512,
		MasterCacheLineSize: 32,
		MasterCacheLatency:  1,
		MasterIssueWidth:    1,
		SpawnOverhead:       12,
		JoinOverhead:        6,
		PSLatency:           2,
		PSPerCycle:          16,
		ClusterPeriod:       8,
		ICNPeriod:           8,
		CachePeriod:         8,
		DRAMPeriod:          16,
		MasterPeriod:        8,
		MemBytes:            16 << 20,
		Seed:                1,
		FaultSeed:           1,
		WatchdogCycles:      2_000_000,
		EnergyALU:           0.05, EnergyMDU: 0.4, EnergyFPU: 0.6,
		EnergyMem: 0.1, EnergyICNHop: 0.08, EnergyCache: 0.25, EnergyDRAM: 2.0,
		StaticWattsPerCluster: 0.05, StaticWattsOther: 0.4,
	}
}

// Chip1024 models the envisioned 1024-TCU XMT chip: 64 clusters × 16 TCUs,
// 64 shared cache modules, ~30-cycle shared-cache access latency for loads
// that traverse the ICN (paper §IV-C), and higher DRAM bandwidth.
func Chip1024() Config {
	return Config{
		Name:                "chip1024",
		FuncBackend:         FuncBackendVM,
		Clusters:            64,
		TCUsPerCluster:      16,
		FPUsPerCluster:      4,
		MDUsPerCluster:      2,
		PrefetchBufEntries:  8,
		ROCacheLines:        128,
		ROCacheLineSize:     32,
		ROCacheLatency:      2,
		CacheModules:        64,
		CacheLinesPerMod:    1024,
		CacheLineSize:       32,
		CacheAssoc:          4,
		CacheHitLatency:     3,
		CacheQueue:          32,
		DRAMPorts:           8,
		DRAMLatency:         60,
		DRAMGapCycles:       2,
		ICNBaseLatency:      12, // with cache service: ~30-cycle load round trip
		ICNInjectPerCyc:     2,
		ICNAcceptPerCyc:     4,
		ICNAsyncHopTicks:    3,
		ICNAsyncGapTicks:    3,
		MasterCacheLines:    1024,
		MasterCacheLineSize: 32,
		MasterCacheLatency:  1,
		MasterIssueWidth:    2,
		SpawnOverhead:       20,
		JoinOverhead:        10,
		PSLatency:           2,
		PSPerCycle:          64,
		ClusterPeriod:       8,
		ICNPeriod:           8,
		CachePeriod:         8,
		DRAMPeriod:          24,
		MasterPeriod:        8,
		MemBytes:            64 << 20,
		Seed:                1,
		FaultSeed:           1,
		WatchdogCycles:      2_000_000,
		EnergyALU:           0.05, EnergyMDU: 0.4, EnergyFPU: 0.6,
		EnergyMem: 0.1, EnergyICNHop: 0.08, EnergyCache: 0.25, EnergyDRAM: 2.0,
		StaticWattsPerCluster: 0.08, StaticWattsOther: 1.5,
	}
}

// Preset returns a named built-in configuration.
func Preset(name string) (Config, error) {
	switch strings.ToLower(name) {
	case "fpga64", "fpga", "64":
		return FPGA64(), nil
	case "chip1024", "1024":
		return Chip1024(), nil
	}
	return Config{}, fmt.Errorf("config: unknown preset %q (have fpga64, chip1024)", name)
}

// Resolve builds a front end's configuration in its one order: the named
// preset, then the key=value file at path (none when empty), then each
// -set override.
func Resolve(preset, path string, sets []string) (Config, error) {
	c, err := Preset(preset)
	if err != nil {
		return c, err
	}
	if path != "" {
		src, err := os.ReadFile(path)
		if err != nil {
			return c, err
		}
		if err := c.Load(string(src)); err != nil {
			return c, err
		}
	}
	for _, kv := range sets {
		if err := c.Set(kv); err != nil {
			return c, err
		}
	}
	return c, nil
}

// field reads and writes one config-file key: get renders the value in a
// form set parses back to the same value.
type field struct {
	get func(*Config) string
	set func(*Config, string) error
}

// fields maps config-file keys to their fields; built once.
var fields = map[string]field{
	"name": {
		func(c *Config) string { return c.Name },
		func(c *Config, v string) error { c.Name = v; return nil },
	},
	"clusters":               intField(func(c *Config) *int { return &c.Clusters }),
	"tcus_per_cluster":       intField(func(c *Config) *int { return &c.TCUsPerCluster }),
	"fpus_per_cluster":       intField(func(c *Config) *int { return &c.FPUsPerCluster }),
	"mdus_per_cluster":       intField(func(c *Config) *int { return &c.MDUsPerCluster }),
	"prefetch_buf_entries":   intField(func(c *Config) *int { return &c.PrefetchBufEntries }),
	"rocache_lines":          intField(func(c *Config) *int { return &c.ROCacheLines }),
	"rocache_line_size":      intField(func(c *Config) *int { return &c.ROCacheLineSize }),
	"rocache_latency":        int64Field(func(c *Config) *int64 { return &c.ROCacheLatency }),
	"cache_modules":          intField(func(c *Config) *int { return &c.CacheModules }),
	"cache_lines_per_mod":    intField(func(c *Config) *int { return &c.CacheLinesPerMod }),
	"cache_line_size":        intField(func(c *Config) *int { return &c.CacheLineSize }),
	"cache_assoc":            intField(func(c *Config) *int { return &c.CacheAssoc }),
	"cache_hit_latency":      int64Field(func(c *Config) *int64 { return &c.CacheHitLatency }),
	"cache_queue":            intField(func(c *Config) *int { return &c.CacheQueue }),
	"dram_ports":             intField(func(c *Config) *int { return &c.DRAMPorts }),
	"dram_latency":           int64Field(func(c *Config) *int64 { return &c.DRAMLatency }),
	"dram_gap_cycles":        int64Field(func(c *Config) *int64 { return &c.DRAMGapCycles }),
	"icn_base_latency":       int64Field(func(c *Config) *int64 { return &c.ICNBaseLatency }),
	"icn_inject_per_cyc":     intField(func(c *Config) *int { return &c.ICNInjectPerCyc }),
	"icn_accept_per_cyc":     intField(func(c *Config) *int { return &c.ICNAcceptPerCyc }),
	"icn_async":              boolField(func(c *Config) *bool { return &c.ICNAsync }),
	"icn_async_hop_ticks":    int64Field(func(c *Config) *int64 { return &c.ICNAsyncHopTicks }),
	"icn_async_gap_ticks":    int64Field(func(c *Config) *int64 { return &c.ICNAsyncGapTicks }),
	"master_cache_lines":     intField(func(c *Config) *int { return &c.MasterCacheLines }),
	"master_cache_line_size": intField(func(c *Config) *int { return &c.MasterCacheLineSize }),
	"master_cache_latency":   int64Field(func(c *Config) *int64 { return &c.MasterCacheLatency }),
	"master_issue_width":     intField(func(c *Config) *int { return &c.MasterIssueWidth }),
	"spawn_overhead":         int64Field(func(c *Config) *int64 { return &c.SpawnOverhead }),
	"join_overhead":          int64Field(func(c *Config) *int64 { return &c.JoinOverhead }),
	"ps_latency":             int64Field(func(c *Config) *int64 { return &c.PSLatency }),
	"ps_per_cycle":           intField(func(c *Config) *int { return &c.PSPerCycle }),
	"cluster_period":         int64Field(func(c *Config) *int64 { return &c.ClusterPeriod }),
	"icn_period":             int64Field(func(c *Config) *int64 { return &c.ICNPeriod }),
	"cache_period":           int64Field(func(c *Config) *int64 { return &c.CachePeriod }),
	"dram_period":            int64Field(func(c *Config) *int64 { return &c.DRAMPeriod }),
	"master_period":          int64Field(func(c *Config) *int64 { return &c.MasterPeriod }),
	"mem_bytes": {
		func(c *Config) string { return strconv.FormatUint(uint64(c.MemBytes), 10) },
		func(c *Config, v string) error {
			n, err := strconv.ParseUint(v, 0, 32)
			if err != nil {
				return err
			}
			c.MemBytes = uint32(n)
			return nil
		},
	},
	"host_workers": intField(func(c *Config) *int { return &c.HostWorkers }),
	"lookahead":    intField(func(c *Config) *int { return &c.Lookahead }),
	"engine_mode":  choiceField(func(c *Config) *string { return &c.EngineMode }, "windowed or optimistic", EngineWindowed, EngineOptimistic),
	"seed":         uint64Field(func(c *Config) *uint64 { return &c.Seed }),
	"fault_seed":   uint64Field(func(c *Config) *uint64 { return &c.FaultSeed }),
	"fault_plan": {
		func(c *Config) string { return c.FaultPlan },
		func(c *Config, v string) error {
			if v != "" {
				if _, err := fault.ParseSpec(v); err != nil {
					return err
				}
			}
			c.FaultPlan = v
			return nil
		},
	},
	"func_backend":    choiceField(func(c *Config) *string { return &c.FuncBackend }, "interp or vm", FuncBackendInterp, FuncBackendVM),
	"watchdog_cycles": int64Field(func(c *Config) *int64 { return &c.WatchdogCycles }),
	"sample_cycles":   int64Field(func(c *Config) *int64 { return &c.SampleCycles }),
	"race_check":      boolField(func(c *Config) *bool { return &c.RaceCheck }),
}

func intField(get func(*Config) *int) field {
	return field{
		func(c *Config) string { return strconv.Itoa(*get(c)) },
		func(c *Config, v string) error {
			n, err := strconv.ParseInt(v, 0, 64)
			if err != nil {
				return err
			}
			*get(c) = int(n)
			return nil
		},
	}
}

func int64Field(get func(*Config) *int64) field {
	return field{
		func(c *Config) string { return strconv.FormatInt(*get(c), 10) },
		func(c *Config, v string) error {
			n, err := strconv.ParseInt(v, 0, 64)
			if err != nil {
				return err
			}
			*get(c) = n
			return nil
		},
	}
}

func uint64Field(get func(*Config) *uint64) field {
	return field{
		func(c *Config) string { return strconv.FormatUint(*get(c), 10) },
		func(c *Config, v string) error {
			n, err := strconv.ParseUint(v, 0, 64)
			if err != nil {
				return err
			}
			*get(c) = n
			return nil
		},
	}
}

func boolField(get func(*Config) *bool) field {
	return field{
		func(c *Config) string { return strconv.FormatBool(*get(c)) },
		func(c *Config, v string) error {
			switch strings.ToLower(v) {
			case "1", "true", "on", "yes":
				*get(c) = true
			case "0", "false", "off", "no":
				*get(c) = false
			default:
				return fmt.Errorf("want a boolean, got %q", v)
			}
			return nil
		},
	}
}

// choiceField is a string key that takes one of choices, or "" for the
// default; values are case-insensitive.
func choiceField(get func(*Config) *string, want string, choices ...string) field {
	return field{
		func(c *Config) string { return *get(c) },
		func(c *Config, v string) error {
			v = strings.ToLower(v)
			if v != "" && !slices.Contains(choices, v) {
				return fmt.Errorf("want %s, got %q", want, v)
			}
			*get(c) = v
			return nil
		},
	}
}

// Set applies one "key=value" override (command-line style).
func (c *Config) Set(kv string) error {
	key, val, ok := strings.Cut(kv, "=")
	if !ok {
		return fmt.Errorf("config: expected key=value, got %q", kv)
	}
	key = strings.ToLower(strings.TrimSpace(key))
	val = strings.TrimSpace(val)
	f, ok := fields[key]
	if !ok {
		return fmt.Errorf("config: unknown key %q (known: %s)", key, strings.Join(Keys(), ", "))
	}
	if err := f.set(c, val); err != nil {
		return fmt.Errorf("config: %s: %v", key, err)
	}
	return nil
}

// Load applies a key=value configuration file on top of c. '#' starts a
// comment.
func (c *Config) Load(src string) error {
	for ln, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		if err := c.Set(line); err != nil {
			return fmt.Errorf("line %d: %v", ln+1, err)
		}
	}
	return nil
}

// Keys lists the recognized configuration keys, sorted.
func Keys() []string {
	out := make([]string, 0, len(fields))
	for k := range fields {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Describe renders the configuration as a configuration file: one
// key=value line per key of Keys, with notes behind '#'. Loading it onto any
// configuration reproduces every field that has a key.
func (c *Config) Describe() string {
	notes := map[string]string{
		"tcus_per_cluster": fmt.Sprintf("total TCUs: %d", c.TCUs()),
		"host_workers":     hostWorkersNote,
		"lookahead":        "0 = derive window from min cross-cluster latency",
		"engine_mode":      "windowed or optimistic; empty = windowed",
		"sample_cycles":    "0 = interval sampling off",
		"func_backend":     "functional-mode backend: vm or interp, empty = vm; results identical",
		"race_check":       "xmtsan dynamic race sanitizer",
	}
	var b strings.Builder
	for _, k := range Keys() {
		fmt.Fprintf(&b, "%s=%s", k, fields[k].get(c))
		if n := notes[k]; n != "" {
			fmt.Fprintf(&b, " # %s", n)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
