package cycle

import (
	"bytes"
	"errors"
	"testing"

	"xmtgo/internal/asm"
	"xmtgo/internal/config"
	"xmtgo/internal/isa"
	"xmtgo/internal/sim/funcvm"
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
// much work the tick had batched. Replay must stop at the first failure, and
// the issues counted past it must be taken back.
func TestCommitStopsReplayAfterFailure(t *testing.T) {
	sys, _ := newCommitSystem(t)
	c := sys.clusters[0]

	var shared uint64
	bang := errors.New("bang")
	addu := &funcvm.IssueRec{Op: uint8(isa.OpAddu), Unit: isa.UnitALU}
	mul := &funcvm.IssueRec{Op: uint8(isa.OpMul), Unit: isa.UnitMDU}
	c.count(addu)         // before the failure: stays counted
	c.ob.stat(&shared, 3) // before the failure: must replay
	c.ob.fail(bang)       // first failure wins
	c.count(mul)          // after the failure: taken back
	c.ob.stat(&shared, 100)
	c.ob.fail(errors.New("second failure must not replace the first"))

	commitOutbox(c)

	if !errors.Is(sys.Err(), bang) {
		t.Fatalf("System.Err() = %v, want the first failure", sys.Err())
	}
	if got := sys.Stats.Cluster[0].ByUnit; got[isa.UnitALU] != 1 || got[isa.UnitMDU] != 0 {
		t.Errorf("cluster 0 counts %v, want only the pre-failure ALU issue", got)
	}
	if shared != 3 {
		t.Errorf("shared stat = %d, want 3 (only the pre-failure add replays)", shared)
	}
	if len(c.ob.recs) != 0 || len(c.ob.log) != 0 {
		t.Errorf("outbox not cleared after the commit: %d records, %d logged issues remain",
			len(c.ob.recs), len(c.ob.log))
	}

	// A later cluster's commit in the same tick replays nothing, and takes
	// back its issues, which counted when they issued.
	c2 := sys.clusters[1]
	c2.count(addu)
	c2.count(mul)
	c2.ob.stat(&shared, 100)
	if n := sys.Stats.Cluster[1].TCUInstrs(); n != 2 {
		t.Fatalf("cluster 1 counts %d issues before its commit, want 2", n)
	}
	commitOutbox(c2)
	if sys.Stats.TCUInstrs() != 1 || sys.Stats.Cluster[1].TCUInstrs() != 0 || shared != 3 {
		t.Errorf("post-failure commit of a later cluster kept effects: instrs=%d (cluster 1: %d) shared=%d",
			sys.Stats.TCUInstrs(), sys.Stats.Cluster[1].TCUInstrs(), shared)
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
