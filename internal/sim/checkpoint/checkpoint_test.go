package checkpoint

import (
	"bytes"
	"io"
	"testing"

	"xmtgo/internal/asm"
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
