// Package funcmodel implements XMTSim's functional model: the operational
// definition of the instructions and the architectural state — registers,
// global registers, shared memory (paper §III-A, Fig. 3). The
// cycle-accurate model fetches decoded instructions from here and returns
// them for execution; the package also provides the fast functional
// simulation mode, which serializes the parallel sections and is used as a
// debugging tool and as the correctness oracle in tests.
package funcmodel

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"xmtgo/internal/asm"
	"xmtgo/internal/isa"
)

// Context is the architectural state of one hardware thread context: the
// Master TCU or one parallel TCU.
type Context struct {
	ID       int // -1 for the master, TCU index otherwise
	IsMaster bool
	Reg      [isa.NumRegs]int32
	PC       int // instruction index
}

// SetReg writes a register, keeping $zero hard-wired.
func (c *Context) SetReg(r isa.Reg, v int32) {
	if r != isa.RegZero {
		c.Reg[r] = v
	}
}

// MemFault is returned for accesses outside the simulated memory.
type MemFault struct {
	Addr uint32
	Op   string
}

func (e *MemFault) Error() string {
	return fmt.Sprintf("memory fault: %s at 0x%08x", e.Op, e.Addr)
}

// RuntimeError wraps an execution error with its program location.
type RuntimeError struct {
	PC   int
	Line int
	In   isa.Instr
	Err  error
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("runtime error at instruction %d (asm line %d, %q): %v", e.PC, e.Line, e.In, e.Err)
}

func (e *RuntimeError) Unwrap() error { return e.Err }

// Machine is the functional model: shared memory, global registers, the
// master context and the spawn-serialization state of the fast functional
// mode.
type Machine struct {
	Prog *asm.Program
	Mem  []byte
	G    [isa.NumGRegs]int32

	Master Context

	// Out receives sys-trap printf output (Fig. 3 "Printf output"). New
	// sets it to the caller's writer behind a recorder, so everything the
	// program prints is also kept for Output and checkpoints; replacing it
	// stops the recording.
	Out     io.Writer
	printed recorder

	Halted bool
	// CheckpointRequested is set by the sys checkpoint trap and consumed
	// by the driving simulator.
	CheckpointRequested bool

	// CycleFn supplies the value of the sys cycle trap. The cycle-accurate
	// model installs the real cycle counter; the functional mode counts
	// executed instructions instead.
	CycleFn func() int64

	// InstrCount counts functionally executed instructions.
	InstrCount uint64

	// Spawn serialization state (functional mode runs parallel sections on
	// a single virtual TCU whose grab-loop naturally serializes all
	// virtual threads).
	inParallel bool
	spawnLow   int32
	spawnHigh  int32
	joinIdx    int
	parallel   Context
	savedPC    int

	// pendingBcast accumulates bcast-ed master registers; applied to TCU
	// contexts at the next spawn.
	pendingBcastMask uint32
	pendingBcast     [isa.NumRegs]int32

	// Trace, when non-nil, is called for each executed instruction.
	Trace func(ctx *Context, in isa.Instr)

	// Dirty-region watermarks for memory recycling (ReleaseMemory): every
	// mutation below memHalf raises dirtyLoMax (exclusive), every mutation
	// at or above it lowers dirtyHiMin (inclusive). The split matches the
	// usual layout — data and heap grow up from the bottom, the serial
	// stack grows down from the top — so a released buffer is re-zeroed in
	// two small ranges instead of its full length.
	memHalf    uint32
	dirtyLoMax uint32
	dirtyHiMin uint32
	memFresh   bool // Mem was made for this machine, not taken from the pool
}

// recorder passes printed output on to the caller's writer and keeps a copy.
type recorder struct {
	text strings.Builder
	w    io.Writer
}

func (r *recorder) Write(p []byte) (int, error) {
	r.text.Write(p)
	return r.w.Write(p)
}

// Output returns everything the program has printed since it started,
// including what it printed before the checkpoint it was resumed from.
func (m *Machine) Output() string { return m.printed.text.String() }

// SetOutput replaces the recorded output without printing it: a restored
// checkpoint's output was printed by the run that took it.
func (m *Machine) SetOutput(s string) {
	m.printed.text.Reset()
	m.printed.text.WriteString(s)
}

// memPool recycles shared-memory buffers between runs, bucketed by size.
// Zeroing tens of megabytes per simulation dominated allocation cost in
// batch runs (mallocgc clears large objects); recycled buffers are instead
// re-zeroed over just their dirty watermark ranges at release.
var memPool struct {
	mu   sync.Mutex
	bufs map[uint32][][]byte
}

const memPoolPerSize = 4

// acquireMem returns a zeroed buffer from the pool, or a fresh one.
func acquireMem(size uint32) (b []byte, fresh bool) {
	memPool.mu.Lock()
	defer memPool.mu.Unlock()
	q := memPool.bufs[size]
	if n := len(q); n > 0 {
		b := q[n-1]
		q[n-1] = nil
		memPool.bufs[size] = q[:n-1]
		return b, false
	}
	return make([]byte, size), true
}

// ReleaseMemory re-zeroes the machine's dirty memory ranges and returns the
// buffer to the recycling pool; on a buffer's first release it also hands
// the pages between the ranges back to the kernel. The machine must not be
// used afterwards. Optional: callers that run one simulation and exit gain
// nothing from it.
func (m *Machine) ReleaseMemory() {
	b := m.Mem
	if b == nil {
		return
	}
	lo, hi := m.DirtyRange()
	m.Mem = nil
	clear(b[:lo])
	clear(b[hi:])
	if m.memFresh {
		dropPages(b, lo, hi)
	}
	size := uint32(len(b))
	memPool.mu.Lock()
	defer memPool.mu.Unlock()
	if memPool.bufs == nil {
		memPool.bufs = make(map[uint32][][]byte)
	}
	if len(memPool.bufs[size]) < memPoolPerSize {
		memPool.bufs[size] = append(memPool.bufs[size], b)
	}
}

// DirtyRange returns the dirty watermarks clamped to the memory: every byte
// the machine may have made non-zero lies in Mem[:lo] or Mem[hi:], and
// lo <= hi <= len(Mem).
func (m *Machine) DirtyRange() (lo, hi uint32) {
	n := uint32(len(m.Mem))
	lo, hi = min(m.dirtyLoMax, n), min(m.dirtyHiMin, n)
	return lo, max(hi, lo)
}

// MarkMemDirty widens the dirty watermarks for an external mutation of
// m.Mem (fault injection, checkpoint restore). lo..hi is a byte range,
// hi exclusive.
func (m *Machine) MarkMemDirty(lo, hi uint32) {
	if lo < m.memHalf {
		if hi > m.dirtyLoMax {
			m.dirtyLoMax = hi
		}
	}
	if lo >= m.memHalf || hi > m.memHalf {
		if lo < m.dirtyHiMin {
			m.dirtyHiMin = lo
		}
	}
}

// New creates a machine for prog with memBytes of shared memory and loads
// the initial data image. out receives printf output (may be nil).
func New(prog *asm.Program, memBytes uint32, out io.Writer) (*Machine, error) {
	if memBytes == 0 {
		memBytes = asm.DefaultMemSize
	}
	if uint64(asm.DataBase)+uint64(len(prog.Data)) > uint64(memBytes) {
		return nil, fmt.Errorf("funcmodel: data segment (%d bytes) exceeds memory size %d", len(prog.Data), memBytes)
	}
	if out == nil {
		out = io.Discard
	}
	mem, fresh := acquireMem(memBytes)
	m := &Machine{Prog: prog, Mem: mem, memFresh: fresh}
	m.printed.w = out
	m.Out = &m.printed
	m.memHalf = memBytes / 2
	m.dirtyHiMin = memBytes
	copy(m.Mem[asm.DataBase:], prog.Data)
	m.MarkMemDirty(asm.DataBase, asm.DataBase+uint32(len(prog.Data)))
	m.Master = Context{ID: -1, IsMaster: true, PC: prog.Entry}
	// The serial stack starts at the top of the simulated memory (the
	// asm.StackTop constant is the default for the default memory size).
	sp := int32(memBytes &^ 7)
	m.Master.Reg[isa.RegSP] = sp
	m.Master.Reg[isa.RegFP] = sp
	m.CycleFn = func() int64 { return int64(m.InstrCount) }
	return m, nil
}

// InParallel reports whether the machine is inside a serialized spawn.
func (m *Machine) InParallel() bool { return m.inParallel }

// Quiescent reports whether the machine is at an architecturally quiescent
// point: serial mode with no pending bcast registers. Checkpoints taken at
// quiescent points are complete (checkpoint.State carries no spawn or
// broadcast state) and therefore backend-agnostic — a quiescent stop under
// one functional backend resumes exactly under the other.
func (m *Machine) Quiescent() bool { return !m.inParallel && m.pendingBcastMask == 0 }

// WidenDirty merges externally tracked dirty watermarks, for backends (the
// funcvm bytecode VM) that write m.Mem directly instead of through
// WriteWord/StoreByte. loMax is the exclusive end of mutations below the
// memory midpoint; hiMin is the lowest mutated address at or above it.
func (m *Machine) WidenDirty(loMax, hiMin uint32) {
	if loMax > m.dirtyLoMax {
		m.dirtyLoMax = loMax
	}
	if hiMin < m.dirtyHiMin {
		m.dirtyHiMin = hiMin
	}
}

// SpawnBounds returns the bounds of the active spawn region.
func (m *Machine) SpawnBounds() (low, high int32) { return m.spawnLow, m.spawnHigh }

// ReadWord reads a 32-bit little-endian word.
func (m *Machine) ReadWord(addr uint32) (int32, error) {
	if addr%4 != 0 {
		return 0, &MemFault{Addr: addr, Op: "unaligned load"}
	}
	if int64(addr)+4 > int64(len(m.Mem)) {
		return 0, &MemFault{Addr: addr, Op: "load"}
	}
	return int32(uint32(m.Mem[addr]) | uint32(m.Mem[addr+1])<<8 |
		uint32(m.Mem[addr+2])<<16 | uint32(m.Mem[addr+3])<<24), nil
}

// WriteWord writes a 32-bit little-endian word.
func (m *Machine) WriteWord(addr uint32, v int32) error {
	if addr%4 != 0 {
		return &MemFault{Addr: addr, Op: "unaligned store"}
	}
	if int64(addr)+4 > int64(len(m.Mem)) {
		return &MemFault{Addr: addr, Op: "store"}
	}
	m.Mem[addr] = byte(v)
	m.Mem[addr+1] = byte(v >> 8)
	m.Mem[addr+2] = byte(v >> 16)
	m.Mem[addr+3] = byte(v >> 24)
	if addr < m.memHalf {
		if addr+4 > m.dirtyLoMax {
			m.dirtyLoMax = addr + 4
		}
	} else if addr < m.dirtyHiMin {
		m.dirtyHiMin = addr
	}
	return nil
}

// LoadByte reads one byte.
func (m *Machine) LoadByte(addr uint32) (byte, error) {
	if int64(addr) >= int64(len(m.Mem)) {
		return 0, &MemFault{Addr: addr, Op: "load byte"}
	}
	return m.Mem[addr], nil
}

// StoreByte writes one byte.
func (m *Machine) StoreByte(addr uint32, v byte) error {
	if int64(addr) >= int64(len(m.Mem)) {
		return &MemFault{Addr: addr, Op: "store byte"}
	}
	m.Mem[addr] = v
	if addr < m.memHalf {
		if addr+1 > m.dirtyLoMax {
			m.dirtyLoMax = addr + 1
		}
	} else if addr < m.dirtyHiMin {
		m.dirtyHiMin = addr
	}
	return nil
}

// Ps performs the global-register prefix-sum: base g is atomically
// incremented by inc (which the hardware restricts to 0 or 1) and the old
// value is returned.
func (m *Machine) Ps(g isa.GReg, inc int32) (int32, error) {
	if inc != 0 && inc != 1 {
		return 0, fmt.Errorf("ps increment must be 0 or 1, got %d", inc)
	}
	old := m.G[g]
	m.G[g] = old + inc
	return old, nil
}

// Psm performs the prefix-sum-to-memory: mem[addr] is atomically
// incremented by any signed 32-bit inc and the old value returned.
func (m *Machine) Psm(addr uint32, inc int32) (int32, error) {
	old, err := m.ReadWord(addr)
	if err != nil {
		return 0, err
	}
	if err := m.WriteWord(addr, old+inc); err != nil {
		return 0, err
	}
	return old, nil
}

// StringAt reads a NUL-terminated string for the sys print-string trap.
func (m *Machine) StringAt(addr uint32) (string, error) {
	var b []byte
	for {
		c, err := m.LoadByte(addr)
		if err != nil {
			return "", err
		}
		if c == 0 {
			return string(b), nil
		}
		if len(b) > 1<<16 {
			return "", fmt.Errorf("unterminated string at 0x%08x", addr)
		}
		b = append(b, c)
		addr++
	}
}
