// Command xmtrun compiles and immediately simulates an XMTC program — the
// one-step workflow students and algorithm developers use ("install the
// toolchain on any personal computer and work on assignments", paper §I).
// It is xmtcc's compile step in front of xmtsim's front end
// (internal/simcli): every xmtsim flag applies (docs/SIMULATOR.md
// §Command-line flags), plus the four compile flags below.
//
// Usage:
//
//	xmtrun [flags] program.c
//
// Examples:
//
//	xmtrun prog.c                          # cycle-accurate on fpga64
//	xmtrun -config chip1024 -stats prog.c
//	xmtrun -mode func prog.c               # fast functional debugging mode
//	xmtrun -mem input.map prog.c
//	xmtrun -profile prog.c                 # cycles per XMTC source line
//	xmtrun -counters prog.c                # hardware performance counters
//	xmtrun -trace out.json prog.c          # Chrome trace for Perfetto
//	xmtrun -checkpoint s.ckpt prog.c       # save at checkpoint() or on SIGINT
//	xmtrun -resume s.ckpt prog.c           # continue from it
package main

import (
	"flag"
	"os"

	"xmtgo/internal/asm"
	"xmtgo/internal/codegen"
	"xmtgo/internal/diag"
	"xmtgo/internal/simcli"
)

func main() {
	opts := codegen.DefaultOptions()
	os.Exit(simcli.Main(simcli.Tool{
		Name: "xmtrun",
		Arg:  "program.c",
		Flags: func(fs *flag.FlagSet) {
			fs.IntVar(&opts.OptLevel, "O", opts.OptLevel, "optimization level")
			fs.IntVar(&opts.ClusterFactor, "cluster", 0, "virtual-thread clustering factor")
			fs.BoolVar(&opts.NoPrefetch, "no-prefetch", false, "disable compiler prefetching")
			fs.BoolVar(&opts.NoNBStore, "no-nbstore", false, "disable non-blocking stores")
		},
		Check: func() error { return codegen.CheckOptLevel(opts.OptLevel) },
		Load: func(file, src string) (*asm.Program, []diag.Diagnostic, error) {
			res, err := codegen.Compile(file, src, opts)
			if err != nil {
				return nil, nil, err
			}
			prog, err := asm.Assemble(res.Unit)
			return prog, res.Warnings, err
		},
	}, os.Args[1:], os.Stdout, os.Stderr))
}
