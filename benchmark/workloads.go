package bench

import wl "xmtgo/internal/workloads"

// workloads lists the implementations in the order of BENCHMARK.json, which
// records why each was chosen.
var workloads = []workload{
	simWorkload{"sim-par-mem", wl.ParallelMemory, 40}.workload(),
	// work is raised tenfold over Table I so that Run dwarfs New.
	simWorkload{"sim-par-compute", wl.ParallelCompute, 400}.workload(),
	simWorkload{"sim-serial-mem", wl.SerialMemory, 40000}.workload(),
	{"compile-corpus", setupCompile},
	{"func-run", setupFunc},
	{"daemon-open", setupDaemon},
}

func (w simWorkload) workload() workload { return workload{w.name, w.setup} }
