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

	Mem        []byte
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

const version = 3

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

// Capture snapshots a functional machine.
func Capture(m *funcmodel.Machine, cycleOffset int64) *State {
	st := &State{
		Version:     version,
		Fingerprint: Fingerprint(m.Prog),
		TextLen:     len(m.Prog.Text),
		Entry:       m.Prog.Entry,
		Mem:         append([]byte(nil), m.Mem...),
		G:           m.G,
		Master:      m.Master,
		InstrCount:  m.InstrCount,
		Halted:      m.Halted,
		Output:      m.Output(),
		CycleOffset: cycleOffset,
	}
	return st
}

// checkVersion refuses a state of another gob layout.
func checkVersion(st *State) error {
	if st.Version != version {
		return fmt.Errorf("checkpoint: version %d not supported (want %d)", st.Version, version)
	}
	return nil
}

// Restore applies a checkpoint to a freshly created machine for the same
// program. The recorded output is put back without being printed again.
func Restore(m *funcmodel.Machine, st *State) error {
	if err := checkVersion(st); err != nil {
		return err
	}
	if fp := Fingerprint(m.Prog); st.Fingerprint != fp {
		return fmt.Errorf("checkpoint: program mismatch (fingerprint %016x, running %016x; text %d/%d, entry %d/%d)",
			st.Fingerprint, fp, st.TextLen, len(m.Prog.Text), st.Entry, m.Prog.Entry)
	}
	if len(st.Mem) != len(m.Mem) {
		return fmt.Errorf("checkpoint: memory size mismatch (%d vs %d)", len(st.Mem), len(m.Mem))
	}
	copy(m.Mem, st.Mem)
	m.MarkMemDirty(0, uint32(len(m.Mem)))
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
	if err := checkVersion(&st); err != nil {
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
