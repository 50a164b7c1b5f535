package config

import (
	"strings"
	"testing"
)

func TestPresetsValidate(t *testing.T) {
	for _, name := range []string{"fpga64", "chip1024"} {
		cfg, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := Preset("nope"); err == nil {
		t.Error("unknown preset must fail")
	}
}

func TestPresetShapes(t *testing.T) {
	f := FPGA64()
	if f.TCUs() != 64 {
		t.Fatalf("fpga64 has %d TCUs", f.TCUs())
	}
	c := Chip1024()
	if c.TCUs() != 1024 {
		t.Fatalf("chip1024 has %d TCUs", c.TCUs())
	}
}

func TestSetAndLoad(t *testing.T) {
	cfg := FPGA64()
	if err := cfg.Set("clusters=16"); err != nil {
		t.Fatal(err)
	}
	if cfg.Clusters != 16 {
		t.Fatal("Set did not apply")
	}
	err := cfg.Load(`
# comment
tcus_per_cluster = 4
dram_latency=99   # trailing comment
seed=7
mem_bytes=0x200000
host_workers=3
`)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.TCUsPerCluster != 4 || cfg.DRAMLatency != 99 || cfg.Seed != 7 || cfg.MemBytes != 0x200000 {
		t.Fatalf("Load did not apply: %+v", cfg)
	}
	if cfg.HostWorkers != 3 {
		t.Fatalf("host_workers did not apply: %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSetErrors(t *testing.T) {
	cfg := FPGA64()
	for _, bad := range []string{"nokey=1", "clusters", "clusters=abc", "seed=-1x"} {
		if err := cfg.Set(bad); err == nil {
			t.Errorf("Set(%q) should fail", bad)
		}
	}
	if err := cfg.Load("line1=1\nclusters=zz"); err == nil || !strings.Contains(err.Error(), "line") {
		t.Errorf("Load should report the failing line, got %v", err)
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.Clusters = 0 },
		func(c *Config) { c.TCUsPerCluster = -1 },
		func(c *Config) { c.CacheLineSize = 24 },
		func(c *Config) { c.CacheAssoc = 3 },
		func(c *Config) { c.CacheQueue = 0 },
		func(c *Config) { c.DRAMPorts = 0 },
		func(c *Config) { c.DRAMGapCycles = 0 },
		func(c *Config) { c.ICNInjectPerCyc = 0 },
		func(c *Config) { c.ClusterPeriod = 0 },
		func(c *Config) { c.MemBytes = 100 },
		func(c *Config) { c.PSLatency = 0 },
		func(c *Config) { c.PSPerCycle = 0 },
		func(c *Config) { c.MasterIssueWidth = 0 },
		func(c *Config) { c.HostWorkers = -1 },
		func(c *Config) { c.CacheHitLatency = -100 },
		func(c *Config) { c.MasterCacheLatency = -1 },
		func(c *Config) { c.ROCacheLatency = -1 },
	}
	for i, mut := range mutations {
		cfg := FPGA64()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d not caught", i)
		}
	}
}

func TestKeysSortedAndSettable(t *testing.T) {
	keys := Keys()
	if len(keys) < 20 {
		t.Fatalf("only %d keys", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatal("keys not sorted")
		}
	}
	// ps_per_cycle must be reachable from config files.
	found := false
	for _, k := range keys {
		if k == "ps_per_cycle" {
			found = true
		}
	}
	if !found {
		t.Fatal("ps_per_cycle missing from the key set")
	}
}

func TestDescribeMentionsEverything(t *testing.T) {
	cfg := Chip1024()
	d := cfg.Describe()
	for _, want := range []string{"chip1024", "clusters=64", "total TCUs: 1024", "ps_per_cycle=64"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe missing %q:\n%s", want, d)
		}
	}
}

// roundTrip loads c.Describe() onto base and fails t unless the result
// matches c in every field that has a key. The power-model fields have none
// and keep base's values.
func roundTrip(t *testing.T, c, base Config) {
	t.Helper()
	got := base
	if err := got.Load(c.Describe()); err != nil {
		t.Fatalf("loading Describe() of %q onto %q: %v\n%s", c.Name, base.Name, err, c.Describe())
	}
	want := c
	want.EnergyALU, want.EnergyMDU, want.EnergyFPU = base.EnergyALU, base.EnergyMDU, base.EnergyFPU
	want.EnergyMem, want.EnergyICNHop, want.EnergyCache, want.EnergyDRAM = base.EnergyMem, base.EnergyICNHop, base.EnergyCache, base.EnergyDRAM
	want.StaticWattsPerCluster, want.StaticWattsOther = base.StaticWattsPerCluster, base.StaticWattsOther
	if got != want {
		t.Fatalf("Describe() of %q loaded onto %q:\n got %+v\nwant %+v", c.Name, base.Name, got, want)
	}
}

// TestDescribeRoundTrip: the -describe output is a configuration file.
// Loaded onto the other preset it reproduces the described configuration,
// for both presets and for one changed key by key.
func TestDescribeRoundTrip(t *testing.T) {
	fpga, chip := FPGA64(), Chip1024()
	roundTrip(t, fpga, chip)
	roundTrip(t, chip, fpga)
	custom := FPGA64()
	for _, kv := range []string{
		"name=my machine", "clusters=4", "tcus_per_cluster=32", "icn_async=on",
		"engine_mode=Optimistic", "func_backend=interp", "race_check=yes",
		"fault_plan=memflip:10;tcufail:2@5000-90000", "fault_seed=0x10",
		"seed=18446744073709551615", "mem_bytes=0x200000", "lookahead=3",
		"host_workers=2", "sample_cycles=500", "watchdog_cycles=0",
	} {
		if err := custom.Set(kv); err != nil {
			t.Fatal(err)
		}
	}
	if err := custom.Validate(); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, custom, chip)
}

func TestSampleCyclesKey(t *testing.T) {
	cfg := FPGA64()
	if err := cfg.Set("sample_cycles=5000"); err != nil {
		t.Fatal(err)
	}
	if cfg.SampleCycles != 5000 {
		t.Fatalf("SampleCycles = %d, want 5000", cfg.SampleCycles)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg.SampleCycles = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative SampleCycles validated")
	}
	if !strings.Contains(cfg.Describe(), "sample_cycles=") {
		t.Fatal("Describe does not mention sample_cycles")
	}
}

// TestFuncBackendDefaultsToVM pins the default functional backend: the
// presets and the zero value both resolve to the bytecode VM, and the
// interpreter runs only when asked for by name.
func TestFuncBackendDefaultsToVM(t *testing.T) {
	for _, cfg := range []Config{FPGA64(), Chip1024(), {}} {
		if !cfg.UseFuncVM() {
			t.Errorf("%q: default func_backend %q does not select the vm", cfg.Name, cfg.FuncBackend)
		}
	}
	cfg := Chip1024()
	if !strings.Contains(cfg.Describe(), "func_backend=vm") {
		t.Errorf("Describe does not show the vm default:\n%s", cfg.Describe())
	}
	if err := cfg.Set("func_backend=interp"); err != nil {
		t.Fatal(err)
	}
	if cfg.UseFuncVM() || !strings.Contains(cfg.Describe(), "func_backend=interp") {
		t.Errorf("func_backend=interp did not select the interpreter (%q)", cfg.FuncBackend)
	}
	if err := cfg.Set("func_backend="); err != nil {
		t.Fatal(err)
	}
	if !cfg.UseFuncVM() {
		t.Error("an empty func_backend must mean the default (vm)")
	}
}
