package cycle_test

import (
	"io"
	"testing"

	"xmtgo/internal/config"
	"xmtgo/internal/sim/cycle"
)

// FuzzConfigRun loads arbitrary config text over fpga64 and, whenever Load
// and Validate accept it, builds a System and runs the compaction program
// under a cycle budget: a configuration Validate accepts may make New or
// the run fail, never panic. The machine is capped (fits) so that the
// fuzzer cannot ask for gigabytes.
func FuzzConfigRun(f *testing.F) {
	fpga := config.FPGA64()
	for _, seed := range []string{
		"cache_hit_latency=-100\n",
		"master_cache_latency=-100\n",
		"rocache_latency=-100\n",
		fpga.Describe(),
		"clusters=2\ntcus_per_cluster=128\nlookahead=3\nhost_workers=2\n",
		"icn_async=true\nengine_mode=optimistic\n",
		"fault_plan=tcufail:1@10-200;memflip:2@10-200\nwatchdog_cycles=500\n",
		"cache_hit_latency=0\ndram_latency=0\nps_latency=1\n",
	} {
		f.Add(seed)
	}
	prog := mustProgram(f, compactionAsm)
	f.Fuzz(func(t *testing.T, src string) {
		cfg := config.FPGA64()
		if cfg.Load(src) != nil || cfg.Validate() != nil || !fits(&cfg) {
			return
		}
		sys, err := cycle.New(prog, cfg, io.Discard)
		if err != nil {
			return
		}
		_, _ = sys.Run(2000)
	})
}

// fits caps a fuzzed machine at 1024 TCUs, 64 MB of memory, a million
// cache lines and four host workers.
func fits(c *config.Config) bool {
	return c.Clusters <= 1024 && c.TCUsPerCluster <= 1024 && c.Clusters*c.TCUsPerCluster <= 1024 &&
		c.FPUsPerCluster <= 64 && c.MDUsPerCluster <= 64 && c.PrefetchBufEntries <= 64 &&
		c.ROCacheLines <= 1<<12 && c.ROCacheLineSize <= 1<<12 &&
		c.CacheModules <= 1<<10 && c.CacheLinesPerMod <= 1<<16 &&
		c.CacheModules*c.CacheLinesPerMod <= 1<<20 && c.CacheLineSize <= 1<<12 && c.CacheQueue <= 1<<12 &&
		c.DRAMPorts <= 1<<10 && c.ICNInjectPerCyc <= 1<<10 && c.ICNAcceptPerCyc <= 1<<10 &&
		c.MasterCacheLines <= 1<<16 && c.MasterCacheLineSize <= 1<<12 && c.MasterIssueWidth <= 64 &&
		c.PSPerCycle <= 1<<16 && c.MemBytes <= 64<<20 && c.HostWorkers <= 4 && c.Lookahead <= 1<<16
}
