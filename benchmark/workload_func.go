package bench

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"xmtgo"
	"xmtgo/internal/asm"
	"xmtgo/internal/config"
	"xmtgo/internal/prng"
	"xmtgo/internal/sim/funcmodel"
	"xmtgo/internal/sim/funcvm"
	wl "xmtgo/internal/workloads"
)

// funcInstance is func-run: an operation is xmtgo.RunFunctional of the next
// of five prebuilt kernels under the preset-default configuration, so it
// follows whichever functional backend is the default. The kernels are
// sized to about 50–100 ms each on the reference host so that the
// executor's inner loop, not machine construction, decides the time.
type funcInstance struct {
	cfg   config.Config
	progs []program
	built []*xmtgo.Program
	units []*xmtgo.Unit // to re-assemble a program the VM has not lowered yet
	out   bytes.Buffer
	// wantInstrs[k] is what xmtgo.RunFunctional executed on kernel k in set-up's
	// warm-up pass; every later operation, traced or not, must match it.
	wantInstrs []uint64

	instrs uint64 // executed by the last pass over the kernels
}

// funcKernels generates the five kernels from the seed, which decides the
// BFS graph and the serial-memory kernel's input array.
func funcKernels(seed uint64, smoke bool) []program {
	shrink := func(n int) int {
		if smoke {
			return n / 16
		}
		return n
	}
	rng := prng.New(seed)
	nBFS := shrink(20000)
	g := wl.RandomGraph(nBFS, 8, rng.Uint64())
	bfs, _ := wl.BFS(nBFS, nBFS*8)
	mmN := 64
	if smoke {
		mmN = 16
	}
	mm, _ := wl.MatMul(mmN)
	psN := shrink(8192)
	ps, _, psLast, psMid := wl.PrefixSum(psN)
	fftN := shrink(8192)
	fft, _ := wl.FFT(fftN)
	work := shrink(200000)
	serMap, serWant := tableIInput(wl.SerialMemory, work, rng.Uint64())
	return []program{
		{"matmul", mm, nil, fmt.Sprint(wl.MatMulTrace(mmN))},
		{"bfs", bfs, []string{g.MemMap()}, fmt.Sprintf("%d %d", g.Reached, g.DistSum)},
		{"prefix-sum", ps, nil, fmt.Sprintf("%d %d", psLast, psMid)},
		{"fft", fft, nil, wl.FFTOracle(fftN)},
		{"serial-mem", wl.TableI(wl.SerialMemory, simThreads, work), []string{serMap}, serWant},
	}
}

func setupFunc(seed uint64, e *env) (instance, error) {
	f := &funcInstance{cfg: xmtgo.ConfigChip1024(), progs: funcKernels(seed, e.smoke)}
	for _, p := range f.progs {
		prog, res, err := xmtgo.Build(p.name+".c", p.src, xmtgo.DefaultCompileOptions(), p.memmaps...)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		f.built = append(f.built, prog)
		f.units = append(f.units, res.Unit)
	}
	for i := range f.progs { // warm-up pass: memory pool, lowered code
		if err := f.op(i, span{}); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	if len(f.wantInstrs) != len(f.progs) {
		return nil, fmt.Errorf("warm-up recorded %d instruction counts for %d kernels", len(f.wantInstrs), len(f.progs))
	}
	return f, nil
}

func (f *funcInstance) measure(d time.Duration, tr *tracer) *phase {
	return closedLoop(d, len(f.progs), func(i int) error {
		root := tr.root(i, "op", time.Now())
		defer root.end()
		return f.op(i, root)
	})
}

func (f *funcInstance) op(i int, root span) error {
	k := i % len(f.progs)
	if k == 0 {
		f.instrs = 0
	}
	f.out.Reset()
	var n uint64
	var err error
	if root.t == nil {
		n, err = xmtgo.RunFunctional(f.built[k], f.cfg, &f.out)
	} else {
		n, err = f.runTraced(f.built[k], f.cfg.FuncBackend, root)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", f.progs[k].name, err)
	}
	f.instrs += n
	if got := strings.TrimSpace(f.out.String()); got != f.progs[k].want {
		return fmt.Errorf("%s: printed %q, oracle says %q", f.progs[k].name, got, f.progs[k].want)
	}
	if k == len(f.wantInstrs) {
		f.wantInstrs = append(f.wantInstrs, n)
	} else if n != f.wantInstrs[k] {
		return fmt.Errorf("%s: executed %d instructions, the first run %d", f.progs[k].name, n, f.wantInstrs[k])
	}
	return nil
}

// runTraced is xmtgo.RunFunctional with a span around each of its calls,
// under the named backend. That copy must follow xmtgo.RunFunctional. It
// cannot drift unnoticed: op holds every run, traced or not, to the output
// of the oracle and the instruction count of set-up's RunFunctional.
func (f *funcInstance) runTraced(prog *xmtgo.Program, backend string, root span) (uint64, error) {
	sp := root.child("funcmodel.New")
	m, err := funcmodel.New(prog, f.cfg.MemBytes, &f.out)
	sp.end()
	if err != nil {
		return 0, err
	}
	defer m.ReleaseMemory()
	if backend == config.FuncBackendVM {
		sp = root.child("funcvm.Attach")
		vm, err := funcvm.Attach(m)
		sp.end()
		if err != nil {
			return 0, err
		}
		sp = root.child("FuncVM.Run")
		err = vm.Run(0)
		sp.end()
		return m.InstrCount, err
	}
	sp = root.child("Machine.Run")
	err = m.Run(0)
	sp.end()
	return m.InstrCount, err
}

func (f *funcInstance) close() error { return nil }

// layers measures both functional backends whatever the default is: one
// traced pass over the kernels under each, repeated, plus the one-time cost
// of lowering a freshly assembled program for the VM.
func (f *funcInstance) layers(m Metrics, _ *tracer) error {
	n := len(f.progs)
	tr := newTracer()
	var lower []float64
	for r := 0; r < ledgerReps; r++ {
		for _, backend := range []string{config.FuncBackendInterp, config.FuncBackendVM} {
			for k := range f.progs {
				f.out.Reset()
				root := tr.root(r*n+k, backend, time.Now())
				err := atDepth(r*5%stackDepths, func() error { // each repeat at another stack offset
					_, err := f.runTraced(f.built[k], backend, root)
					return err
				})
				root.end()
				if err != nil {
					return fmt.Errorf("%s under %s: %w", f.progs[k].name, backend, err)
				}
			}
		}
	}
	for k := range f.progs {
		fresh, err := asm.Assemble(f.units[k])
		if err != nil {
			return err
		}
		lower = append(lower, timeReps(1, func() { funcvm.NewCode(fresh) })[0])
	}
	m["funcvm.lower_ms"] = mean(lower)
	m["funcmodel.new_ms"] = tr.perInputMs("funcmodel.New", n)
	m["funcmodel.run_ms"] = tr.perInputMs("Machine.Run", n)
	m["funcvm.attach_ms"] = tr.perInputMs("funcvm.Attach", n)
	m["funcvm.run_ms"] = tr.perInputMs("FuncVM.Run", n)
	perOp := float64(f.instrs) / float64(n)
	m["funcmodel.instrs_per_op"] = perOp
	m["funcmodel.minstr_per_s"] = perOp / m["funcmodel.run_ms"] / 1e3
	m["funcvm.minstr_per_s"] = perOp / m["funcvm.run_ms"] / 1e3
	return nil
}
