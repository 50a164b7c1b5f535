package bench

import (
	"fmt"
	"strings"
	"time"

	"xmtgo"
	"xmtgo/internal/analysis"
	"xmtgo/internal/asm"
	"xmtgo/internal/asm/postpass"
	"xmtgo/internal/codegen"
	"xmtgo/internal/prng"
	"xmtgo/internal/sim/checkpoint"
	wl "xmtgo/internal/workloads"
	"xmtgo/internal/xmtc"
	"xmtgo/internal/xmtc/prepass"
)

// program is one corpus entry: XMTC source, its memory-map inputs and what
// a correct build of it must print — from the generator's own oracle,
// never from the toolchain under test.
type program struct {
	name    string
	src     string
	memmaps []string
	want    string
}

// corpus generates the 13 programs of compile-corpus from the seed: the
// eight PRAM kernels of internal/workloads in their parallel form, the four
// Table I kernels and the serial BFS. The seed decides the BFS and
// connectivity graphs, the compaction array and its density, and the
// Table I input arrays.
func corpus(seed uint64) []program {
	rng := prng.New(seed)
	sub := func() uint64 { return rng.Uint64() }

	g := wl.RandomGraph(400, 8, sub())
	bfsPar, bfsSer := wl.BFS(512, 8192)
	bfsWant := fmt.Sprintf("%d %d", g.Reached, g.DistSum)
	connMap, comps := wl.ComponentsGraph(300, 6, 8, sub())
	connPar, _ := wl.Connectivity(512, 4096)
	fftPar, _ := wl.FFT(256)
	mmPar, _ := wl.MatMul(24)
	psPar, _, psLast, psMid := wl.PrefixSum(1024)
	redPar, _, redWant := wl.Reduction(2048)
	vaPar, _, vaWant := wl.VecAdd(2048)
	compSrc, nonZeros := wl.Compaction(512, 0.25+0.5*rng.Float64(), sub())

	ps := []program{
		{"bfs", bfsPar, []string{g.MemMap()}, bfsWant},
		{"connectivity", connPar, []string{connMap}, fmt.Sprint(comps)},
		{"fft", fftPar, nil, wl.FFTOracle(256)},
		{"matmul", mmPar, nil, fmt.Sprint(wl.MatMulTrace(24))},
		{"prefix-sum", psPar, nil, fmt.Sprintf("%d %d", psLast, psMid)},
		{"reduction", redPar, nil, fmt.Sprint(redWant)},
		{"vecadd", vaPar, nil, fmt.Sprint(vaWant)},
		{"compaction", compSrc, nil, fmt.Sprint(nonZeros)},
	}
	for _, t := range []struct {
		name  string
		group wl.TableIGroup
		work  int
	}{
		{"par-mem", wl.ParallelMemory, 40},
		{"par-compute", wl.ParallelCompute, 40},
		{"serial-mem", wl.SerialMemory, 40000},
		{"serial-compute", wl.SerialCompute, 40000},
	} {
		p := program{name: t.name, src: wl.TableI(t.group, simThreads, t.work)}
		var memmap string
		memmap, p.want = tableIInput(t.group, t.work, sub())
		if memmap != "" {
			p.memmaps = []string{memmap}
		}
		ps = append(ps, p)
	}
	return append(ps, program{"bfs-serial", bfsSer, []string{g.MemMap()}, bfsWant})
}

// compileInstance is compile-corpus: an operation is xmtgo.Build (compile,
// assemble, memory map) of the next corpus program with default options.
type compileInstance struct {
	progs []program
	// verified[i] fingerprints the build of progs[i] that set-up ran in
	// functional mode and checked against the oracle; a timed build is
	// correct when it produces that same program.
	verified []uint64
}

func setupCompile(seed uint64, e *env) (instance, error) {
	c := &compileInstance{progs: corpus(seed)}
	for _, p := range c.progs {
		prog, _, err := xmtgo.Build(p.name+".c", p.src, xmtgo.DefaultCompileOptions(), p.memmaps...)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		ref, err := functionalRef(prog, xmtgo.ConfigChip1024().MemBytes)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		if ref.output != p.want {
			return nil, fmt.Errorf("%s: built program printed %q, oracle says %q", p.name, ref.output, p.want)
		}
		c.verified = append(c.verified, checkpoint.Fingerprint(prog))
	}
	for i := range c.progs { // warm-up pass
		if err := c.op(i, span{}); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return c, nil
}

func (c *compileInstance) measure(d time.Duration, tr *tracer) *phase {
	return closedLoop(d, len(c.progs), func(i int) error {
		root := tr.root(i, "op", time.Now())
		defer root.end()
		return c.op(i, root)
	})
}

func (c *compileInstance) op(i int, root span) error {
	p := &c.progs[i%len(c.progs)]
	prog, err := c.build(p, root)
	if err != nil {
		return fmt.Errorf("%s: %w", p.name, err)
	}
	if got := checkpoint.Fingerprint(prog); got != c.verified[i%len(c.progs)] {
		return fmt.Errorf("%s: build fingerprint %016x differs from the verified build", p.name, got)
	}
	return nil
}

// build is xmtgo.Build; under tracing it makes Build's three calls itself
// so that each gets a span. That copy must follow xmtgo.Build. It cannot
// drift unnoticed: op compares every build, traced or not, with the
// fingerprint of the xmtgo.Build that set-up made and verified.
func (c *compileInstance) build(p *program, root span) (*xmtgo.Program, error) {
	file := p.name + ".c"
	if root.t == nil {
		prog, _, err := xmtgo.Build(file, p.src, xmtgo.DefaultCompileOptions(), p.memmaps...)
		return prog, err
	}
	sp := root.child("codegen.Compile")
	res, err := codegen.Compile(file, p.src, codegen.DefaultOptions())
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = root.child("asm.Assemble")
	prog, err := asm.Assemble(res.Unit)
	sp.end()
	if err != nil {
		return nil, err
	}
	for _, mm := range p.memmaps {
		sp = root.child("asm.ApplyMemMap")
		err = asm.ApplyMemMap(prog, "memmap", mm)
		sp.end()
		if err != nil {
			return nil, err
		}
	}
	return prog, nil
}

func (c *compileInstance) close() error { return nil }

// compileLedgerReps repeats each per-pass call; the ledger keeps the quiet
// value.
const compileLedgerReps = 5

// layers times every pass of the pipeline by its own public call on fresh
// input, per program, and reports the mean over the corpus: the cost of the
// layer per operation. Counts are totals over one pass of the corpus.
func (c *compileInstance) layers(m Metrics, tr *tracer) error {
	n := len(c.progs)
	m["codegen.compile_ms"] = tr.perInputMs("codegen.Compile", n)
	m["asm.assemble_ms"] = tr.perInputMs("asm.Assemble", n)
	m["asm.memmap_ms"] = tr.perInputMs("asm.ApplyMemMap", n)

	sums := map[string]float64{}
	var lines int
	for i := range c.progs {
		p := &c.progs[i]
		file := p.name + ".c"
		srcLines := strings.Split(p.src, "\n")
		lines += len(srcLines)
		t := map[string][]float64{}
		var res *codegen.Result
		for r := 0; r < compileLedgerReps; r++ {
			var f *xmtc.File
			var info *xmtc.Info
			var bare *codegen.Result
			var text string
			steps := []struct {
				name string
				call func() (err error)
			}{
				{"xmtc.parse_ms", func() (err error) { f, err = xmtc.Parse(file, p.src); return }},
				{"xmtc.check_ms", func() (err error) { info, err = xmtc.Check(f); return }},
				{"analysis.run_ms", func() error {
					analysis.Run(&analysis.Unit{Filename: file, File: f, Info: info, Lines: srcLines}, nil)
					return nil
				}},
				{"prepass.run_ms", func() error { return prepass.Run(f, prepass.Options{}) }},
				{"compile", func() (err error) { res, err = codegen.Compile(file, p.src, codegen.DefaultOptions()); return }},
				{"codegen.compile_o0_ms", func() (err error) {
					_, err = codegen.Compile(file, p.src, codegen.Options{OptLevel: 0})
					return
				}},
				{"", func() (err error) { // untimed: a unit the post-pass has not seen
					o := codegen.DefaultOptions()
					o.SkipPostpass = true
					bare, err = codegen.Compile(file, p.src, o)
					return
				}},
				{"postpass.run_ms", func() (err error) { _, err = postpass.Run(bare.Unit); return }},
				{"asm.print_ms", func() error { text = asm.Print(res.Unit); return nil }},
				{"asm.parse_ms", func() (err error) { _, err = asm.Parse(p.name+".s", text); return }},
			}
			for _, s := range steps {
				t0 := time.Now()
				if err := s.call(); err != nil {
					return fmt.Errorf("%s: %s: %w", p.name, s.name, err)
				}
				if s.name != "" {
					t[s.name] = append(t[s.name], ms(time.Since(t0)))
				}
			}
		}
		for name, d := range t {
			sums[name] += quiet(d)
		}
		prog, err := asm.Assemble(res.Unit)
		if err != nil {
			return err
		}
		m["codegen.functions"] += float64(res.Stats.Functions)
		m["codegen.outlined_spawns"] += float64(res.Stats.OutlinedSpawns)
		m["codegen.nonblocking"] += float64(res.Stats.NonBlocking)
		m["codegen.prefetches"] += float64(res.Stats.Prefetches)
		m["codegen.relocated_blocks"] += float64(res.Stats.RelocatedBlocks)
		m["asm.instrs_out"] += float64(len(prog.Text))
		m["asm.data_bytes_out"] += float64(len(prog.Data))
	}
	for name, s := range sums {
		if name != "compile" {
			m[name] = s / float64(n)
		}
	}
	m["codegen.core_self_ms"] = (sums["compile"] - sums["xmtc.parse_ms"] - sums["xmtc.check_ms"] -
		sums["prepass.run_ms"] - sums["postpass.run_ms"]) / float64(n)
	m["xmtc.corpus_lines"] = float64(lines)
	m["xmtc.parse_klines_per_s"] = float64(lines) / sums["xmtc.parse_ms"]
	return nil
}
