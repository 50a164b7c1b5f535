// Package checkpoint implements simulation checkpoints (paper §III-E): the
// architectural state of a simulation can be saved — at a point requested
// ahead of time by the program (the sys checkpoint trap) or by the driving
// tool — and simulation resumed later, which among other uses facilitates
// dynamically load-balancing a batch of long simulations across machines.
//
// Checkpoints are taken at architecturally quiescent points: anywhere in
// functional mode, and at serial-mode instruction boundaries with a drained
// write buffer in cycle-accurate mode (the master is then the only active
// agent). This restriction relative to XMTSim's arbitrary-point checkpoints
// is documented in DESIGN.md. A checkpoint is also the run's resume point:
// it carries the output printed and the instructions retired since program
// start, and the cycle and instruction counters carry on from it, so a
// resumed run reports the totals of an uninterrupted one.
package checkpoint

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"io"
	"os"

	"xmtgo/internal/asm"
	"xmtgo/internal/atomicfile"
	"xmtgo/internal/isa"
	"xmtgo/internal/sim/funcmodel"
)

// State is a serializable simulation checkpoint.
type State struct {
	// Version guards the gob layout.
	Version int

	// Fingerprint ties the checkpoint to the specific linked program it was
	// captured under: an FNV-1a hash over every instruction's semantic
	// fields, the initial data image, and the entry point. Resuming under
	// any other program — even one with the same length and entry — is
	// refused. TextLen and Entry are kept alongside for diagnostics.
	Fingerprint uint64
	TextLen     int
	Entry       int

	// MemBytes is the size of shared memory. Pages holds its non-zero
	// content as runs of whole 4 KiB pages (the last page of memory may be
	// shorter), ascending and separated by at least one zero page, each
	// page with a non-zero byte. Every byte outside the runs is zero, the
	// data image's bytes included.
	MemBytes uint32
	Pages    []Run

	G          [isa.NumGRegs]int32
	Master     funcmodel.Context
	InstrCount uint64 // retired since program start, in either mode
	Halted     bool

	// Output is everything the program printed before the capture.
	Output string

	// CycleOffset is the cycle count at capture (cycle-accurate mode).
	CycleOffset int64

	// DeadTCUs lists TCUs decommissioned by injected permanent faults
	// before the capture, so a resumed cycle-accurate run continues on the
	// same degraded machine (docs/ROBUSTNESS.md).
	DeadTCUs []int
}

// Run is Data at shared-memory address Addr.
type Run struct {
	Addr uint32
	Data []byte
}

// pageSize is the granularity at which Capture scans memory for non-zero
// content.
const pageSize = 4096

const version = 4

// Fingerprint hashes the aspects of a linked program that determine
// execution: instruction semantics (not source lines or symbol names — a
// re-assembly with touched comments still matches), the initial data image,
// and the entry point.
func Fingerprint(p *asm.Program) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v int64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	word(int64(p.Entry))
	word(int64(len(p.Text)))
	for i := range p.Text {
		in := &p.Text[i]
		word(int64(in.Op))
		word(int64(in.Rd) | int64(in.Rs)<<8 | int64(in.Rt)<<16 | int64(in.G)<<24)
		word(int64(in.Imm))
		word(int64(in.Target))
	}
	h.Write(p.Data)
	return h.Sum64()
}

// Capture snapshots a functional machine. Its memory is read only inside
// the machine's dirty watermarks, where every byte it may have made
// non-zero lies, and only the non-zero pages there are kept.
func Capture(m *funcmodel.Machine, cycleOffset int64) *State {
	lo, hi := m.DirtyRange()
	lo, hi = roundUp(lo, uint32(len(m.Mem))), hi&^(pageSize-1)
	var pages []Run
	if lo >= hi {
		pages = appendRuns(nil, m.Mem, 0, uint32(len(m.Mem)))
	} else {
		pages = appendRuns(appendRuns(nil, m.Mem, 0, lo), m.Mem, hi, uint32(len(m.Mem)))
	}
	st := &State{
		Version:     version,
		Fingerprint: Fingerprint(m.Prog),
		TextLen:     len(m.Prog.Text),
		Entry:       m.Prog.Entry,
		MemBytes:    uint32(len(m.Mem)),
		Pages:       pages,
		G:           m.G,
		Master:      m.Master,
		InstrCount:  m.InstrCount,
		Halted:      m.Halted,
		Output:      m.Output(),
		CycleOffset: cycleOffset,
	}
	return st
}

// roundUp rounds a up to a page boundary, at most to n.
func roundUp(a, n uint32) uint32 {
	return uint32(min((uint64(a)+pageSize-1)&^(pageSize-1), uint64(n)))
}

var zeroPage [pageSize]byte

// appendRuns appends the non-zero pages of mem[from:to] (from page-aligned)
// to runs, one Run per stretch of consecutive non-zero pages.
func appendRuns(runs []Run, mem []byte, from, to uint32) []Run {
	nonZero := func(a uint32) bool {
		p := mem[a:min(a+pageSize, to)]
		return !bytes.Equal(p, zeroPage[:len(p)])
	}
	for a := from; a < to; {
		if !nonZero(a) {
			a += pageSize
			continue
		}
		end := a + pageSize
		for end < to && nonZero(end) {
			end += pageSize
		}
		end = min(end, to)
		runs = append(runs, Run{Addr: a, Data: bytes.Clone(mem[a:end])})
		a = end
	}
	return runs
}

// FNV-1a, 64-bit (hash/fnv).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Digest fingerprints the architectural end state: FNV-1a (64-bit) over
// the dense memory image, then each global register as a little-endian
// word, then the output. Two runs with equal digests ended bit-identical in
// every architecturally visible artifact. It is computed from the runs: a
// zero byte leaves FNV-1a's xor step a no-op, so a gap of n zero bytes
// multiplies the hash by prime^n (mod 2^64), raised by squaring.
func (st *State) Digest() uint64 {
	h := uint64(fnvOffset)
	zeros := func(n uint32) {
		for p := uint64(fnvPrime); n > 0; n >>= 1 {
			if n&1 != 0 {
				h *= p
			}
			p *= p
		}
	}
	data := func(b []byte) {
		for _, c := range b {
			h = (h ^ uint64(c)) * fnvPrime
		}
	}
	at := uint32(0)
	for _, r := range st.Pages {
		zeros(r.Addr - at)
		data(r.Data)
		at = r.Addr + uint32(len(r.Data))
	}
	zeros(st.MemBytes - at)
	for _, g := range st.G {
		data([]byte{byte(g), byte(g >> 8), byte(g >> 16), byte(g >> 24)})
	}
	for i := 0; i < len(st.Output); i++ {
		h = (h ^ uint64(st.Output[i])) * fnvPrime
	}
	return h
}

// check refuses a state of another gob layout, or one whose runs are not
// ascending, disjoint and inside its memory.
func check(st *State) error {
	if st.Version != version {
		return fmt.Errorf("checkpoint: version %d not supported (want %d)", st.Version, version)
	}
	next := uint64(0)
	for _, r := range st.Pages {
		end := uint64(r.Addr) + uint64(len(r.Data))
		if uint64(r.Addr) < next || end > uint64(st.MemBytes) {
			return fmt.Errorf("checkpoint: memory run %#x+%d out of order or outside %d bytes of memory", r.Addr, len(r.Data), st.MemBytes)
		}
		next = end
	}
	return nil
}

// Restore applies a checkpoint to a machine created for the same program:
// it zeroes the machine's dirty range, the data image included, writes the
// checkpoint's runs and marks only them dirty, so whatever the machine held
// before cannot leak into the resumed run. The recorded output is put back
// without being printed again.
func Restore(m *funcmodel.Machine, st *State) error {
	if err := check(st); err != nil {
		return err
	}
	if fp := Fingerprint(m.Prog); st.Fingerprint != fp {
		return fmt.Errorf("checkpoint: program mismatch (fingerprint %016x, running %016x; text %d/%d, entry %d/%d)",
			st.Fingerprint, fp, st.TextLen, len(m.Prog.Text), st.Entry, m.Prog.Entry)
	}
	if int(st.MemBytes) != len(m.Mem) {
		return fmt.Errorf("checkpoint: memory size mismatch (%d vs %d)", st.MemBytes, len(m.Mem))
	}
	lo, hi := m.DirtyRange()
	clear(m.Mem[:lo])
	clear(m.Mem[hi:])
	for _, r := range st.Pages {
		copy(m.Mem[r.Addr:], r.Data)
		m.MarkMemDirty(r.Addr, r.Addr+uint32(len(r.Data)))
	}
	m.G = st.G
	m.Master = st.Master
	m.InstrCount = st.InstrCount
	m.Halted = st.Halted
	m.SetOutput(st.Output)
	m.CheckpointRequested = false
	return nil
}

// Save writes a checkpoint with gob encoding.
func Save(w io.Writer, st *State) error {
	return gob.NewEncoder(w).Encode(st)
}

// Load reads a checkpoint written by Save, refusing one of another version.
func Load(r io.Reader) (*State, error) {
	var st State
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("checkpoint: %v", err)
	}
	if err := check(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// SaveFile writes a checkpoint file atomically and durably (fsync'd temp +
// rename + directory sync, internal/atomicfile): a crash, a power loss or a
// second signal at any instant leaves either the previous checkpoint or the
// new one, never a torn file.
func SaveFile(path string, st *State) error {
	return atomicfile.WriteFunc(path, 0o644, func(w io.Writer) error {
		return Save(w, st)
	})
}

// LoadFile reads a checkpoint file written by SaveFile. A missing file is
// reported as the os error (errors.Is(err, fs.ErrNotExist)), so callers for
// which "no checkpoint yet" means "from the start" can tell it apart.
func LoadFile(path string) (*State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return st, nil
}
