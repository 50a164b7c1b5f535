package config

import "testing"

// FuzzConfig throws arbitrary key=value text at the configuration loader.
// Invariants: Load never panics; Validate either accepts the result or
// returns a diagnostic — it must never panic on any loadable configuration
// (including fault plans, which are parsed and bound-checked at Validate
// time); and a configuration that validates is described by Describe: its
// output, loaded onto the other preset, reproduces every keyed field.
func FuzzConfig(f *testing.F) {
	f.Add("clusters=8\ntcus_per_cluster=8\n")
	fpga, chip := FPGA64(), Chip1024()
	f.Add(fpga.Describe())
	f.Add(chip.Describe())
	f.Add("fault_plan=memflip:10;tcufail:2@5000-90000\nfault_seed=7\nwatchdog_cycles=1000\n")
	f.Add("fault_plan=clusterfail:999xzz@9-1\n")
	f.Add("# comment\nclusters=0\nmem_bytes=-5\n")
	f.Add("periods=\ncluster_period=0\nicn_async=maybe\n")
	f.Fuzz(func(t *testing.T, src string) {
		cfg := FPGA64()
		if err := cfg.Load(src); err != nil {
			return // rejected input: fine, as long as nothing panicked
		}
		if cfg.Validate() != nil {
			return
		}
		roundTrip(t, cfg, Chip1024())
	})
}
