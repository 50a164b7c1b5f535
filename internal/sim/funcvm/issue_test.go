package funcvm

import (
	"strings"
	"testing"
	"unsafe"

	"xmtgo/internal/asm"
	"xmtgo/internal/isa"
)

// TestIssueRecordsMatchMeta is the table test of the issue lowering: every
// opcode of the ISA lowers to a record whose unit, latency and
// load/store/branch bits equal Op.Meta(), whose operand slots are the
// instruction's, and whose class is a real one.
func TestIssueRecordsMatchMeta(t *testing.T) {
	if sz := unsafe.Sizeof(IssueRec{}); sz > 16 {
		t.Fatalf("sizeof(IssueRec) = %d, want <= 16", sz)
	}
	text := make([]isa.Instr, isa.NumOps)
	for op := range text {
		text[op] = isa.Instr{Op: isa.Op(op), Rd: 3, Rs: 4, Rt: 5, G: 7, Imm: -0x1234, Target: op + 1, Line: op + 1}
	}
	recs, err := NewCode(&asm.Program{Text: text}).Issue()
	if err != nil {
		t.Fatalf("an ISA opcode has no issue record: %v", err)
	}
	seen := map[IssueClass]bool{}
	for pc, r := range recs {
		op := isa.Op(pc)
		meta := op.Meta()
		if isa.Op(r.Op) != op {
			t.Errorf("%s: record carries opcode %d", op, r.Op)
		}
		if r.Class == ClsNone || r.Class >= numIssueClasses {
			t.Errorf("%s: class %d is not an issue class", op, r.Class)
		}
		seen[r.Class] = true
		if r.Unit != meta.Unit || int(r.Lat) != meta.Latency {
			t.Errorf("%s: unit/latency %s/%d, Meta says %s/%d", op, r.Unit, r.Lat, meta.Unit, meta.Latency)
		}
		if got := r.Flags&FlagLoad != 0; got != meta.Load {
			t.Errorf("%s: load bit %v, Meta says %v", op, got, meta.Load)
		}
		if got := r.Flags&FlagStore != 0; got != meta.Store {
			t.Errorf("%s: store bit %v, Meta says %v", op, got, meta.Store)
		}
		if got := r.Flags&FlagBranch != 0; got != meta.Branch {
			t.Errorf("%s: branch bit %v, Meta says %v", op, got, meta.Branch)
		}
		if r.Rd != 3 || r.Rs != 4 || r.Rt != 5 || int(r.Target) != pc+1 {
			t.Errorf("%s: slots rd=%d rs=%d rt=%d target=%d, want 3 4 5 %d", op, r.Rd, r.Rs, r.Rt, r.Target, pc+1)
		}
		switch r.Class {
		case ClsPs, ClsGrr, ClsGrw:
			if r.G() != 7 {
				t.Errorf("%s: global register g%d, want g7", op, r.G())
			}
		default:
			if r.Imm != -0x1234 {
				t.Errorf("%s: immediate %#x, want the raw -0x1234 (ExecCompute owns the fold)", op, r.Imm)
			}
		}
		// The class agrees with the metadata it replaces on the issue path.
		shared := r.Class == ClsMDU || r.Class == ClsFPU
		if shared != (meta.Unit == isa.UnitMDU || meta.Unit == isa.UnitFPU) {
			t.Errorf("%s: class %d vs unit %s", op, r.Class, meta.Unit)
		}
		if (r.Class == ClsBranch) != meta.Branch {
			t.Errorf("%s: class %d vs Meta.Branch %v", op, r.Class, meta.Branch)
		}
	}
	for c := ClsNone + 1; c < numIssueClasses; c++ {
		if !seen[c] {
			t.Errorf("issue class %d is produced by no opcode", c)
		}
	}
}

// TestIssueLoweringFailsLoudly pins where an unissuable instruction is
// reported: by the lowering (Code.Issue), naming the instruction — never by
// a TCU reaching it. The bytecode VM's own stream is unaffected: it rejects
// the opcode at run time, like the interpreter it mirrors.
func TestIssueLoweringFailsLoudly(t *testing.T) {
	for name, bad := range map[string]isa.Instr{
		"opcode without a class": {Op: isa.Op(isa.NumOps), Line: 7},
		"register out of range":  {Op: isa.OpAddu, Rd: isa.NumRegs, Line: 7},
		"global out of range":    {Op: isa.OpPs, G: isa.NumGRegs, Line: 7},
	} {
		p := &asm.Program{Text: []isa.Instr{{Op: isa.OpNop, Line: 6}, bad}}
		c := NewCode(p)
		recs, err := c.Issue()
		if err == nil {
			t.Errorf("%s: lowering succeeded: %+v", name, recs)
			continue
		}
		if !strings.Contains(err.Error(), "instruction 1 (asm line 7)") {
			t.Errorf("%s: error does not locate the instruction: %v", name, err)
		}
		if c.Len() != 2 {
			t.Errorf("%s: VM word stream has %d instructions, want 2", name, c.Len())
		}
	}
}
