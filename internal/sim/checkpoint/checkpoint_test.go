package checkpoint

import (
	"bytes"
	"encoding/gob"
	"hash/fnv"
	"io"
	"slices"
	"strings"
	"testing"

	"xmtgo/internal/asm"
	"xmtgo/internal/isa"
	"xmtgo/internal/sim/funcmodel"
)

const prog = `
        .data
v:      .word 5
        .text
main:   lw    $t0, v
        addiu $t0, $t0, 1
        sw    $t0, v
        sys   5          # request a checkpoint
        lw    $v0, v
        sys   1
        sys   0
`

func machine(t *testing.T) *funcmodel.Machine {
	t.Helper()
	return machineFor(t, prog, nil)
}

func machineFor(t *testing.T, src string, out io.Writer) *funcmodel.Machine {
	t.Helper()
	u, err := asm.Parse("c.s", src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := asm.Assemble(u)
	if err != nil {
		t.Fatal(err)
	}
	m, err := funcmodel.New(p, 1<<20, out)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCheckpointCarriesOutput: a checkpoint holds what the program printed
// before it and the instructions it retired; a machine restored from it
// reports both as its own without printing the output again, and goes on
// to the totals of a run that never stopped.
func TestCheckpointCarriesOutput(t *testing.T) {
	const src = `
        .text
main:   li    $v0, 1
        sys   1
        sys   5
        li    $v0, 2
        sys   1
        sys   0
`
	var whole bytes.Buffer
	ref := machineFor(t, src, &whole)
	if err := ref.Run(0); err != nil {
		t.Fatal(err)
	}

	m := machineFor(t, src, nil)
	for !m.CheckpointRequested {
		if _, err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := Save(&buf, Capture(m, 0)); err != nil {
		t.Fatal(err)
	}
	st, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Output != "1" || st.InstrCount != m.InstrCount {
		t.Fatalf("checkpoint carries output %q and %d instructions, want \"1\" and %d", st.Output, st.InstrCount, m.InstrCount)
	}

	var rest bytes.Buffer
	m2 := machineFor(t, src, &rest)
	if err := Restore(m2, st); err != nil {
		t.Fatal(err)
	}
	if rest.Len() != 0 || m2.Output() != "1" {
		t.Fatalf("restore printed %q and recorded %q, want nothing and \"1\"", rest.String(), m2.Output())
	}
	if err := m2.Run(0); err != nil {
		t.Fatal(err)
	}
	if rest.String() != "2" || m2.Output() != whole.String() || m2.InstrCount != ref.InstrCount {
		t.Fatalf("resumed run printed %q, recorded %q over %d instructions; want \"2\", %q, %d",
			rest.String(), m2.Output(), m2.InstrCount, whole.String(), ref.InstrCount)
	}
}

func TestCaptureRestoreResume(t *testing.T) {
	m := machine(t)
	// Run until the checkpoint trap.
	for !m.CheckpointRequested {
		ok, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("halted before checkpoint")
		}
	}
	st := Capture(m, 1234)

	// Serialize and reload.
	var buf bytes.Buffer
	if err := Save(&buf, st); err != nil {
		t.Fatal(err)
	}
	st2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st2.CycleOffset != 1234 || st2.InstrCount != st.InstrCount {
		t.Fatal("metadata lost")
	}

	// Restore into a fresh machine and finish the program.
	var out bytes.Buffer
	m2 := machineFor(t, prog, &out)
	if err := Restore(m2, st2); err != nil {
		t.Fatal(err)
	}
	if err := m2.Run(1000); err != nil {
		t.Fatal(err)
	}
	if out.String() != "6" {
		t.Fatalf("resumed output %q, want 6 (stored increment must persist)", out.String())
	}
}

func TestRestoreRejectsMismatch(t *testing.T) {
	m := machine(t)
	st := Capture(m, 0)

	other := `
        .text
main:   nop
        sys 0
`
	u, _ := asm.Parse("o.s", other)
	p, _ := asm.Assemble(u)
	m2, _ := funcmodel.New(p, 1<<20, nil)
	if err := Restore(m2, st); err == nil {
		t.Fatal("restoring under a different program must fail")
	}

	st.Version = 99
	m3 := machine(t)
	if err := Restore(m3, st); err == nil {
		t.Fatal("unknown version must fail")
	}
	var buf bytes.Buffer
	if err := Save(&buf, st); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Fatal("loading a checkpoint of another version must fail")
	}
}

// TestFingerprintDetectsInstructionChange covers the hole the v1 format had:
// two programs with the same text length and entry but different instruction
// content must not accept each other's checkpoints.
func TestFingerprintDetectsInstructionChange(t *testing.T) {
	build := func(src string) *funcmodel.Machine {
		t.Helper()
		u, err := asm.Parse("f.s", src)
		if err != nil {
			t.Fatal(err)
		}
		p, err := asm.Assemble(u)
		if err != nil {
			t.Fatal(err)
		}
		m, err := funcmodel.New(p, 1<<20, nil)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a := build("main:\n addiu $t0, $zero, 1\n sys 0\n")
	b := build("main:\n addiu $t0, $zero, 2\n sys 0\n")
	if len(a.Prog.Text) != len(b.Prog.Text) || a.Prog.Entry != b.Prog.Entry {
		t.Fatalf("test premise broken: text %d/%d entry %d/%d",
			len(a.Prog.Text), len(b.Prog.Text), a.Prog.Entry, b.Prog.Entry)
	}
	st := Capture(a, 0)
	if err := Restore(b, st); err == nil {
		t.Fatal("checkpoint accepted by a same-shape program with different instructions")
	}
	// The fingerprint must ignore non-semantic fields: re-parsing the same
	// source (fresh Line/Sym metadata) still matches.
	a2 := build("main:\n addiu $t0, $zero, 1\n sys 0\n")
	if err := Restore(a2, st); err != nil {
		t.Fatalf("re-assembled identical program refused: %v", err)
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Fatal("garbage must fail to load")
	}
}

// TestLoadRefusesVersion3: a file in the dense layout of version 3 (the
// whole memory image in one Mem field) does not load, and the error names
// both versions.
func TestLoadRefusesVersion3(t *testing.T) {
	m := machine(t)
	type v3 struct {
		Version     int
		Fingerprint uint64
		Mem         []byte
		Output      string
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v3{Version: 3, Fingerprint: Fingerprint(m.Prog), Mem: m.Mem}); err != nil {
		t.Fatal(err)
	}
	_, err := Load(&buf)
	if err == nil || !strings.Contains(err.Error(), "version 3 not supported (want 4)") {
		t.Fatalf("loading a version-3 checkpoint: %v, want a version error", err)
	}
}

// roundTripSrc has a data image over three pages: non-zero words, a zero
// gap of more than a page, and a non-zero word past it.
const roundTripSrc = `
        .data
a:      .word 1, 2, 3, 0x01010101
gap:    .space 5000
b:      .word 7
        .text
main:   sys 0
`

// roundTripMem is not a whole number of pages, so the top page is short.
const roundTripMem = 0x21804

// scribble applies the writes ops encodes, five bytes each (a kind, a
// 32-bit little-endian operand), through the machine's own store paths:
// arbitrary bytes (zero among them), zero words, zeroes over data-image
// bytes, and words in the top page, where the serial stack lives.
func scribble(m *funcmodel.Machine, ops []byte) {
	n := uint32(len(m.Mem))
	for ; len(ops) >= 5; ops = ops[5:] {
		x := uint32(ops[1]) | uint32(ops[2])<<8 | uint32(ops[3])<<16 | uint32(ops[4])<<24
		switch ops[0] % 4 {
		case 0:
			m.StoreByte(x%n, byte(x>>24))
		case 1:
			m.WriteWord(x%n&^3, 0)
		case 2:
			m.StoreByte(asm.DataBase+x%uint32(len(m.Prog.Data)), 0)
		case 3:
			m.WriteWord(n&^3-4-(x%pageSize)&^3, int32(x|1))
		}
	}
}

// FuzzCheckpointRoundTrip: whatever a program wrote, Capture, Save, Load
// and Restore reproduce memory exactly — into a fresh machine and into one
// that has run and written elsewhere — and the restored machine's dirty
// range covers every non-zero byte, so capturing it again gives the same
// runs.
func FuzzCheckpointRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 0, 0, 0, 2, 4, 0, 0, 0, 2, 12, 0, 0, 0}) // zero data-image bytes
	f.Add([]byte{1, 4, 0, 1, 0, 0, 9, 8, 1, 0xff})              // a zero word in a non-zero page
	f.Add([]byte{3, 0, 0, 0, 0, 3, 0xfc, 0x0f, 0, 0})           // the top page
	f.Add([]byte{0, 0, 0x10, 0, 0x80, 0, 0xff, 0xff, 0x01, 0x42})
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := machineSized(t, roundTripSrc, roundTripMem)
		defer m.ReleaseMemory()
		scribble(m, ops)
		m.G[3] = int32(len(ops))
		st := Capture(m, 77)
		var buf bytes.Buffer
		if err := Save(&buf, st); err != nil {
			t.Fatal(err)
		}
		got, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		fresh := machineSized(t, roundTripSrc, roundTripMem)
		defer fresh.ReleaseMemory()
		used := machineSized(t, roundTripSrc, roundTripMem)
		defer used.ReleaseMemory()
		scribble(used, []byte{0, 1, 2, 3, 4, 3, 5, 6, 7, 8, 0, 0, 0, 2, 0xf0})
		for name, r := range map[string]*funcmodel.Machine{"fresh": fresh, "used": used} {
			if err := Restore(r, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(r.Mem, m.Mem) || r.G != m.G {
				t.Fatalf("%s machine: restored memory or registers differ", name)
			}
			again := Capture(r, 77)
			if !slices.EqualFunc(again.Pages, st.Pages, func(a, b Run) bool { return a.Addr == b.Addr && bytes.Equal(a.Data, b.Data) }) {
				t.Fatalf("%s machine: capture after restore has %d runs, the original %d", name, len(again.Pages), len(st.Pages))
			}
		}
	})
}

func machineSized(t *testing.T, src string, memBytes uint32) *funcmodel.Machine {
	t.Helper()
	u, err := asm.Parse("c.s", src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := asm.Assemble(u)
	if err != nil {
		t.Fatal(err)
	}
	m, err := funcmodel.New(p, memBytes, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// FuzzDigest: Digest is hash/fnv's FNV-1a over the dense memory image, the
// global registers as little-endian words and the output — for memories of
// any length, runs cut at pages or at every non-zero byte stretch, and
// output with NUL bytes.
func FuzzDigest(f *testing.F) {
	f.Add([]byte{}, int32(0), "")
	f.Add([]byte{0, 0, 1}, int32(-1), "a\x00b")
	f.Add(append(make([]byte, 3*pageSize+5), 9), int32(42), "\x00")
	f.Add(bytes.Repeat([]byte{0, 7, 0, 0}, 2000), int32(1<<30), "out\n")
	f.Fuzz(func(t *testing.T, mem []byte, g int32, out string) {
		h := fnv.New64a()
		h.Write(mem)
		var gs [isa.NumGRegs]int32
		gs[0], gs[len(gs)-1] = g, ^g
		for _, v := range gs {
			h.Write([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
		}
		io.WriteString(h, out)
		want := h.Sum64()

		paged := &State{MemBytes: uint32(len(mem)), Pages: appendRuns(nil, mem, 0, uint32(len(mem))), G: gs, Output: out}
		fine := &State{MemBytes: uint32(len(mem)), G: gs, Output: out}
		for a := 0; a < len(mem); a++ {
			if mem[a] == 0 {
				continue
			}
			end := a
			for end < len(mem) && mem[end] != 0 {
				end++
			}
			fine.Pages = append(fine.Pages, Run{Addr: uint32(a), Data: mem[a:end]})
			a = end
		}
		for name, st := range map[string]*State{"page runs": paged, "byte runs": fine} {
			if got := st.Digest(); got != want {
				t.Fatalf("%s: digest %016x, hash/fnv %016x", name, got, want)
			}
		}
	})
}
