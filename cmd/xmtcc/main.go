// Command xmtcc is the XMTC compiler driver: it translates XMTC source to
// optimized XMT assembly through the three-pass pipeline (source-to-source
// pre-pass with outlining, optimizing core pass, verifying post-pass).
//
// Usage:
//
//	xmtcc [flags] program.c
//
// Flags mirror the toolchain's options: -O sets the optimization level,
// -cluster enables virtual-thread clustering, -no-prefetch / -no-nbstore
// disable the XMT-specific optimizations for ablation studies,
// -dump-prepass shows the outlined program (the paper's Fig. 8c view), and
// -scramble-layout reproduces the GCC basic-block placement issue of
// Fig. 9 so the post-pass relocation can be observed with -v.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"xmtgo/internal/codegen"
	"xmtgo/internal/diag"
)

func main() {
	var (
		out         = flag.String("o", "", "output assembly file (default: stdout)")
		optLevel    = flag.Int("O", 1, "optimization level (0 or 1)")
		cluster     = flag.Int("cluster", 0, "virtual-thread clustering factor (0/1 = off)")
		noPrefetch  = flag.Bool("no-prefetch", false, "disable compiler prefetch insertion")
		noNBStore   = flag.Bool("no-nbstore", false, "disable non-blocking stores")
		prefSlots   = flag.Int("prefetch-slots", 4, "max prefetches per virtual thread")
		noOutline   = flag.Bool("no-outline", false, "disable the outlining pre-pass (unsafe mode)")
		scramble    = flag.Bool("scramble-layout", false, "mimic GCC's misplaced spawn blocks (Fig. 9); the post-pass fixes them")
		dumpPrepass = flag.Bool("dump-prepass", false, "print the pre-passed (outlined) program and exit")
		dumpIR      = flag.Bool("dump-ir", false, "print the optimized IR of every function and exit")
		analyze     = flag.Bool("analyze", false, "run the static analyzer (the xmtlint checks) before code generation")
		werror      = flag.Bool("Werror", false, "treat analyzer and front-end warnings as errors")
		verbose     = flag.Bool("v", false, "print compilation statistics and post-pass diagnostics")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: xmtcc [flags] program.c")
		flag.Usage()
		os.Exit(2)
	}
	// codegen reads PrefetchSlots 0 as the default of 4, so out-of-range
	// values would compile silently as something else.
	if err := codegen.CheckOptLevel(*optLevel); err != nil {
		usage(err.Error())
	}
	if *prefSlots < 1 {
		usage("-prefetch-slots must be at least 1; -no-prefetch inserts no prefetches")
	}
	file := flag.Arg(0)
	src, err := os.ReadFile(file)
	if err != nil {
		fatal(err)
	}
	opts := codegen.Options{
		OptLevel:       *optLevel,
		NoNBStore:      *noNBStore,
		NoPrefetch:     *noPrefetch,
		PrefetchSlots:  *prefSlots,
		ClusterFactor:  *cluster,
		DisableOutline: *noOutline,
		ScrambleLayout: *scramble,
		DumpIR:         *dumpIR,
		DumpPrepass:    *dumpPrepass,
		Analyze:        *analyze,
	}
	res, err := codegen.Compile(file, string(src), opts)
	if err != nil {
		fatal(err)
	}
	// Front-end warnings and analyzer/post-pass diagnostics share one
	// stream; notes are chatty, so they stay behind -analyze / -v.
	ds := append(append([]diag.Diagnostic(nil), res.Warnings...), res.Diagnostics...)
	diag.Sort(ds)
	if *werror {
		ds = diag.Promote(ds)
	}
	errs := 0
	for _, d := range ds {
		if d.Severity == diag.Note && !*analyze && !*verbose {
			continue
		}
		fmt.Fprintln(os.Stderr, d)
		if d.Severity >= diag.Error {
			errs++
		}
	}
	if errs > 0 {
		fmt.Fprintf(os.Stderr, "xmtcc: %d error(s), no output written\n", errs)
		os.Exit(1)
	}
	if *dumpPrepass {
		fmt.Print(res.PrepassSource)
		return
	}
	if *dumpIR {
		names := make([]string, 0, len(res.IRDumps))
		for n := range res.IRDumps {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Println(res.IRDumps[n])
		}
		return
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "functions: %d (outlined spawns: %d)\n", res.Stats.Functions, res.Stats.OutlinedSpawns)
		fmt.Fprintf(os.Stderr, "non-blocking stores: %d, prefetches inserted: %d\n", res.Stats.NonBlocking, res.Stats.Prefetches)
		fmt.Fprintf(os.Stderr, "post-pass relocated blocks: %d\n", res.Stats.RelocatedBlocks)
	}
	text := printUnit(res)
	if *out == "" {
		fmt.Print(text)
		return
	}
	if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
		fatal(err)
	}
}

func printUnit(res *codegen.Result) string {
	s := asmPrint(res)
	if !strings.HasSuffix(s, "\n") {
		s += "\n"
	}
	return s
}

func usage(msg string) {
	fmt.Fprintln(os.Stderr, "xmtcc:", msg)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xmtcc:", err)
	os.Exit(1)
}
