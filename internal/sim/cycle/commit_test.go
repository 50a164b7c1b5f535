package cycle

import (
	"bytes"
	"errors"
	"testing"

	"xmtgo/internal/asm"
	"xmtgo/internal/config"
	"xmtgo/internal/isa"
)

// newCommitSystem builds a System around a trivial program without running
// it, so a test can fill a cluster outbox by hand and commit it directly.
func newCommitSystem(t *testing.T) (*System, *bytes.Buffer) {
	t.Helper()
	u, err := asm.Parse("commit.s", "\t.text\nmain:\tsys 0\n")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(u)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	sys, err := New(prog, config.FPGA64(), &out)
	if err != nil {
		t.Fatal(err)
	}
	return sys, &out
}

// commitOutbox runs one one-cycle window on an idle cluster: whatever the
// test put in the outbox replays as that cycle's segment.
func commitOutbox(c *Cluster) {
	c.BeginWindow(0, false)
	c.WindowTick(0, 0)
	c.CommitCycle(0, 0, true)
}

// TestCommitStopsReplayAfterFailure is the regression test for the outbox
// replay bug: when a cluster raised a failure and had further records (a ps
// request, more instruction counts) queued in the same tick, the commit kept
// replaying them, so shared counters were bumped for effects that never
// architecturally happened — and the amount of over-count depended on how
// much work the tick had batched. Replay must stop at the first failure.
func TestCommitStopsReplayAfterFailure(t *testing.T) {
	sys, _ := newCommitSystem(t)
	c := sys.clusters[0]

	var shared uint64
	bang := errors.New("bang")
	c.ob.count(uint8(isa.OpAddu)) // before the failure: must replay
	c.ob.stat(&shared, 3)         // before the failure: must replay
	c.ob.fail(bang)               // first failure wins
	c.ob.count(uint8(isa.OpAddu)) // after the failure: must be discarded
	c.ob.stat(&shared, 100)       // after the failure: must be discarded
	c.ob.fail(errors.New("second failure must not replace the first"))

	commitOutbox(c)

	if !errors.Is(sys.Err(), bang) {
		t.Fatalf("System.Err() = %v, want the first failure", sys.Err())
	}
	if sys.Stats.TCUInstrs != 1 {
		t.Errorf("TCUInstrs = %d, want 1 (only the pre-failure count replays)", sys.Stats.TCUInstrs)
	}
	if shared != 3 {
		t.Errorf("shared stat = %d, want 3 (only the pre-failure add replays)", shared)
	}
	if len(c.ob.recs) != 0 {
		t.Errorf("outbox not cleared after the commit: %d records remain", len(c.ob.recs))
	}

	// A later cluster's commit in the same tick must also replay nothing.
	c2 := sys.clusters[1]
	c2.ob.count(uint8(isa.OpAddu))
	c2.ob.stat(&shared, 100)
	commitOutbox(c2)
	if sys.Stats.TCUInstrs != 1 || shared != 3 {
		t.Errorf("post-failure commit of a later cluster replayed records: instrs=%d shared=%d",
			sys.Stats.TCUInstrs, shared)
	}
}

// TestCommitStopsReplayAfterHalt mirrors the failure case for a clean halt
// raised by a syscall mid-outbox: records batched behind the halting sys 0
// (further prints, counters) must not take effect.
func TestCommitStopsReplayAfterHalt(t *testing.T) {
	sys, out := newCommitSystem(t)
	c := sys.clusters[0]
	tcu := c.tcus[0]

	// sys 1 prints $v0; sys 0 halts. Records after the halt are discarded.
	printInstr := isa.Instr{Op: isa.OpSys, Imm: 1}
	haltInstr := isa.Instr{Op: isa.OpSys, Imm: 0}
	tcu.ctx.Reg[isa.RegV0] = 42
	var shared uint64
	c.ob.sys(tcu, 0, &printInstr)
	c.ob.sys(tcu, 1, &haltInstr)
	c.ob.sys(tcu, 2, &printInstr) // must not print: simulation already halted
	c.ob.stat(&shared, 7)         // must not replay

	commitOutbox(c)

	if !sys.halted {
		t.Fatal("System did not halt")
	}
	if got, want := out.String(), "42"; got != want {
		t.Errorf("output = %q, want %q (print after halt must be discarded)", got, want)
	}
	if shared != 0 {
		t.Errorf("shared stat = %d, want 0 (record after halt must be discarded)", shared)
	}
}
