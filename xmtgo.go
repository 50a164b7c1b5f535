// Package xmtgo is a Go reproduction of the XMT toolchain described in
// "Toolchain for Programming, Simulating and Studying the XMT Many-Core
// Architecture" (Keceli, Tzannes, Caragea, Barua, Vishkin — IPDPS Workshops
// 2011): the XMTC optimizing compiler (pre-pass outlining, optimizing core
// pass, assembly post-pass) and XMTSim, a highly configurable cycle-accurate
// discrete-event simulator of the XMT many-core architecture, plus the fast
// functional simulation mode, statistics/plug-in machinery, power and
// thermal modeling, execution tracing, checkpoints and floorplan
// visualization.
//
// This package is the public facade. A typical workflow — the programmer's
// workflow from PRAM algorithm to simulated execution the paper describes —
// is:
//
//	prog, _, err := xmtgo.Build("compact.c", src, xmtgo.DefaultCompileOptions())
//	if err != nil { ... }
//	sys, err := xmtgo.NewSimulator(prog, xmtgo.ConfigFPGA64(), os.Stdout)
//	if err != nil { ... }
//	res, err := sys.Run(0)
//	fmt.Println(res.Cycles)
package xmtgo

import (
	"io"

	"xmtgo/internal/asm"
	"xmtgo/internal/asm/postpass"
	"xmtgo/internal/codegen"
	"xmtgo/internal/config"
	"xmtgo/internal/sim/checkpoint"
	"xmtgo/internal/sim/cycle"
	"xmtgo/internal/sim/funcmodel"
	"xmtgo/internal/sim/funcvm"
	"xmtgo/internal/sim/power"
	"xmtgo/internal/sim/stats"
	"xmtgo/internal/sim/thermal"
	"xmtgo/internal/sim/trace"
)

// Compiler types.
type (
	// CompileOptions configure the XMTC compiler pipeline.
	CompileOptions = codegen.Options
	// CompileResult is a successful compilation (assembly unit + stats).
	CompileResult = codegen.Result
	// Program is a linked XMT executable.
	Program = asm.Program
	// Unit is a parsed/emitted assembly unit (pre-link).
	Unit = asm.Unit
)

// Simulator types.
type (
	// Config describes a simulated XMT machine.
	Config = config.Config
	// Simulator is the cycle-accurate system (XMTSim's cycle mode).
	Simulator = cycle.System
	// SimResult summarizes a cycle-accurate run.
	SimResult = cycle.Result
	// Machine is the functional model (XMTSim's fast functional mode).
	Machine = funcmodel.Machine
	// FuncVM is the direct-threaded bytecode backend for functional mode
	// (docs/SIMULATOR.md §Functional backends).
	FuncVM = funcvm.VM
	// Stats is the instruction/activity counter collector.
	Stats = stats.Collector
	// Filter is the end-of-run statistics filter plug-in interface.
	Filter = stats.Filter
	// ActivityPlugin samples activity counters at runtime and may drive
	// DVFS through the Control API.
	ActivityPlugin = cycle.ActivityPlugin
	// Tracer renders execution traces.
	Tracer = trace.Tracer
	// Checkpoint is a serializable simulation state.
	Checkpoint = checkpoint.State
	// PowerModel converts the activity between two counter snapshots to
	// watts; it keeps no state of its own.
	PowerModel = power.Model
	// ThermalGrid is the lumped RC die model.
	ThermalGrid = thermal.Grid
	// ThermalManager is the bundled power/thermal DVFS activity plug-in.
	ThermalManager = power.ThermalManager
)

// Engine window strategies for Config.EngineMode (docs/PERF.md): the
// conservative bounded-lookahead default and the optimistic rollback mode.
// Results are bit-identical under either.
const (
	EngineWindowed   = config.EngineWindowed
	EngineOptimistic = config.EngineOptimistic
)

// Functional-mode backends for Config.FuncBackend (docs/SIMULATOR.md
// §Functional backends). Architectural results are bit-identical under
// either; the VM is the fast path.
const (
	FuncBackendInterp = config.FuncBackendInterp
	FuncBackendVM     = config.FuncBackendVM
)

// DefaultCompileOptions returns the standard -O1 pipeline configuration.
func DefaultCompileOptions() CompileOptions { return codegen.DefaultOptions() }

// Compile runs the three-pass XMTC compiler and returns the assembly unit.
func Compile(file, src string, opts CompileOptions) (*CompileResult, error) {
	return codegen.Compile(file, src, opts)
}

// Build compiles XMTC source and links it (applying optional memory-map
// inputs, the paper's mechanism for feeding data to OS-less XMTC programs).
func Build(file, src string, opts CompileOptions, memMaps ...string) (*Program, *CompileResult, error) {
	res, err := codegen.Compile(file, src, opts)
	if err != nil {
		return nil, nil, err
	}
	prog, err := asm.Assemble(res.Unit)
	if err != nil {
		return nil, res, err
	}
	for _, mm := range memMaps {
		if err := asm.ApplyMemMap(prog, "memmap", mm); err != nil {
			return nil, res, err
		}
	}
	return prog, res, nil
}

// Assemble parses, verifies (post-pass) and links handwritten assembly.
func Assemble(file, src string, memMaps ...string) (*Program, error) {
	u, err := asm.Parse(file, src)
	if err != nil {
		return nil, err
	}
	if _, err := postpass.Run(u); err != nil {
		return nil, err
	}
	prog, err := asm.Assemble(u)
	if err != nil {
		return nil, err
	}
	for _, mm := range memMaps {
		if err := asm.ApplyMemMap(prog, "memmap", mm); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

// PrintUnit renders an assembly unit as text (round-trips through Parse).
func PrintUnit(u *Unit) string { return asm.Print(u) }

// ConfigFPGA64 returns the 64-TCU Paraleap FPGA prototype configuration.
func ConfigFPGA64() Config { return config.FPGA64() }

// ConfigChip1024 returns the envisioned 1024-TCU XMT chip configuration.
func ConfigChip1024() Config { return config.Chip1024() }

// PresetConfig returns a named built-in configuration.
func PresetConfig(name string) (Config, error) { return config.Preset(name) }

// NewSimulator builds a cycle-accurate simulator for prog; out receives the
// program's printf output.
func NewSimulator(prog *Program, cfg Config, out io.Writer) (*Simulator, error) {
	return cycle.New(prog, cfg, out)
}

// NewMachine builds the fast functional-mode machine for prog (orders of
// magnitude faster than cycle-accurate mode; serializes spawn sections).
func NewMachine(prog *Program, cfg Config, out io.Writer) (*Machine, error) {
	return funcmodel.New(prog, cfg.MemBytes, out)
}

// NewFuncVM attaches the direct-threaded bytecode backend to a functional
// machine, lowering the program on first use (the lowered form is cached
// on the Program and shared by subsequent VMs).
func NewFuncVM(m *Machine) (*FuncVM, error) { return funcvm.Attach(m) }

// RunFunctional executes prog to completion in functional mode — under the
// backend selected by cfg.FuncBackend — and returns the number of executed
// instructions.
func RunFunctional(prog *Program, cfg Config, out io.Writer) (uint64, error) {
	m, err := funcmodel.New(prog, cfg.MemBytes, out)
	if err != nil {
		return 0, err
	}
	if cfg.UseFuncVM() {
		vm, err := funcvm.Attach(m)
		if err != nil {
			m.ReleaseMemory()
			return 0, err
		}
		err = vm.Run(0)
		n := m.InstrCount
		m.ReleaseMemory()
		return n, err
	}
	err = m.Run(0)
	n := m.InstrCount
	m.ReleaseMemory()
	return n, err
}

// NewHotLocationsFilter returns the paper's example filter plug-in: a list
// of the most frequently accessed shared-memory locations.
func NewHotLocationsFilter(granularity uint32, topN int) *stats.HotLocations {
	return stats.NewHotLocations(granularity, topN)
}

// NewThermalManager returns the bundled power→temperature→DVFS activity
// plug-in (paper §III-F).
func NewThermalManager(cfg *Config, intervalCycles int64, thresholdC float64) (*ThermalManager, error) {
	return power.NewThermalManager(cfg, intervalCycles, thresholdC)
}

// SaveCheckpoint / LoadCheckpoint persist simulation state.
func SaveCheckpoint(w io.Writer, st *Checkpoint) error { return checkpoint.Save(w, st) }

// LoadCheckpoint reads a checkpoint written by SaveCheckpoint.
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) { return checkpoint.Load(r) }
