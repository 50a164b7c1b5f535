// Command xmtsim is the XMT simulator driver: it loads an XMT assembly
// program (plus optional memory-map input files) and simulates it either
// cycle-accurately or in the fast functional mode, with the statistics,
// tracing, plug-in, checkpoint and floorplan facilities of XMTSim. The
// front end is internal/simcli, shared with xmtrun; its flags are listed
// in docs/SIMULATOR.md §Command-line flags.
//
// Usage:
//
//	xmtsim [flags] program.s
//
// Examples:
//
//	xmtsim -config chip1024 -stats prog.s
//	xmtsim -mode func prog.s
//	xmtsim -set clusters=16 -set dram_latency=100 prog.s
//	xmtsim -trace cycle -trace-tcu 0 prog.s
//	xmtsim -hot prog.s
//	xmtsim -checkpoint state.ckpt prog.s           # save at sys checkpoint
//	xmtsim -resume state.ckpt prog.s               # resume from a checkpoint
//	xmtsim -thermal -floorplan prog.s
//	xmtsim -describe -config fpga64
//	xmtsim -workers 4 prog.s                       # host-parallel (results identical)
//	xmtsim -sample-cycles 5000 -samples ts.jsonl prog.s  # interval telemetry
//	xmtsim -serve 127.0.0.1:9090 prog.s            # live /metrics /status /stream
//	xmtsim -cpuprofile cpu.pprof prog.s            # see docs/PERF.md
package main

import (
	"os"

	"xmtgo/internal/asm"
	"xmtgo/internal/diag"
	"xmtgo/internal/jobrun"
	"xmtgo/internal/simcli"
)

func main() {
	os.Exit(simcli.Main(simcli.Tool{
		Name: "xmtsim",
		Arg:  "program.s",
		Load: func(file, src string) (*asm.Program, []diag.Diagnostic, error) {
			return jobrun.Load("asm", file, src)
		},
	}, os.Args[1:], os.Stdout, os.Stderr))
}
