package funcvm

import (
	"fmt"

	"xmtgo/internal/isa"
)

// IssueClass is the dense dispatch class of an instruction in the
// cycle-accurate model: everything TCU.issue and Master.issue used to
// re-derive from isa.Op and Op.Meta() at every issue, decided once at
// lowering time. The values are contiguous so `switch rec.Class` compiles
// to a jump table.
type IssueClass uint8

const (
	ClsNone    IssueClass = iota // unclassified: lowering reports an error
	ClsCompute                   // private ALU/shift op: ExecCompute, no stall
	ClsMDU                       // cluster-shared multiply/divide unit
	ClsFPU                       // cluster-shared floating-point unit
	ClsBranch                    // branches and jumps: EvalBranch
	ClsLoad                      // lw, lb, lbu
	ClsLoadRO                    // lwro: probes the cluster read-only cache first
	ClsStore                     // sw, sb (blocking)
	ClsStoreNB                   // sw.nb (posted)
	ClsPsm                       // prefix-sum to memory
	ClsPref                      // prefetch-buffer fill
	ClsPs                        // prefix-sum on a global register
	ClsGrr                       // global register read
	ClsGrw                       // global register write
	ClsFence
	ClsSys
	ClsChkid
	ClsJoin
	ClsSpawn
	ClsBcast
	numIssueClasses
)

// Metadata bits of IssueRec.Flags, equal to the isa.Info booleans.
const (
	FlagLoad uint8 = 1 << iota
	FlagStore
	FlagBranch
)

// IssueRec is the cycle model's pre-decoded form of one instruction: 16
// bytes, immutable, indexed by pc. Register fields are architectural
// register numbers (always < isa.NumRegs). Imm is the raw immediate — the
// fold (masking, lui's shift) belongs to funcmodel.ExecCompute, the one
// compute kernel — except for ps/grr/grw, which have no immediate and
// carry their global-register index there.
type IssueRec struct {
	Class IssueClass
	Op    uint8 // the isa.Op (NumOps fits a byte; lowering checks)
	Unit  isa.Unit
	Lat   uint8 // base latency at the servicing unit, cycles
	Flags uint8
	Rd    isa.Reg
	Rs    isa.Reg
	Rt    isa.Reg

	Imm    int32
	Target int32 // linked branch/jump target (instruction index), or -1
}

// G returns the global-register operand of a ps/grr/grw record.
func (r *IssueRec) G() isa.GReg { return isa.GReg(r.Imm) }

// classOf decides an opcode's issue class. It is the chain of
// `in.Op == …` / meta tests the cycle model used to walk per issue; an
// opcode it cannot place (a new control op nobody taught the cycle model
// about) has no class, which fails the lowering instead of the issue.
func classOf(op isa.Op) IssueClass {
	if int(op) >= isa.NumOps {
		return ClsNone
	}
	switch op {
	case isa.OpSpawn:
		return ClsSpawn
	case isa.OpJoin:
		return ClsJoin
	case isa.OpChkid:
		return ClsChkid
	case isa.OpBcast:
		return ClsBcast
	case isa.OpPs:
		return ClsPs
	case isa.OpGrr:
		return ClsGrr
	case isa.OpGrw:
		return ClsGrw
	case isa.OpFence:
		return ClsFence
	case isa.OpSys:
		return ClsSys
	case isa.OpPsm:
		return ClsPsm
	case isa.OpPref:
		return ClsPref
	case isa.OpLwRO:
		return ClsLoadRO
	case isa.OpSwNB:
		return ClsStoreNB
	}
	meta := op.Meta()
	switch {
	case meta.Load:
		return ClsLoad
	case meta.Store:
		return ClsStore
	case meta.Branch:
		return ClsBranch
	case meta.Unit == isa.UnitMDU:
		return ClsMDU
	case meta.Unit == isa.UnitFPU:
		return ClsFPU
	case meta.Unit == isa.UnitALU, meta.Unit == isa.UnitSFT:
		return ClsCompute
	}
	return ClsNone
}

// lowerIssue builds the issue record of one instruction.
func lowerIssue(in *isa.Instr) (IssueRec, error) {
	cls := classOf(in.Op)
	if cls == ClsNone {
		return IssueRec{}, fmt.Errorf("opcode %d (%s) has no issue class", in.Op, in.Op)
	}
	meta := in.Op.Meta()
	if in.Op > 0xff || meta.Latency < 0 || meta.Latency > 0xff {
		return IssueRec{}, fmt.Errorf("%s: opcode or latency %d does not fit an issue record", in.Op, meta.Latency)
	}
	if in.Rd >= isa.NumRegs || in.Rs >= isa.NumRegs || in.Rt >= isa.NumRegs {
		return IssueRec{}, fmt.Errorf("%s: register out of range", in.Op)
	}
	r := IssueRec{
		Class: cls, Op: uint8(in.Op), Unit: meta.Unit, Lat: uint8(meta.Latency),
		Rd: in.Rd, Rs: in.Rs, Rt: in.Rt,
		Imm: in.Imm, Target: int32(in.Target),
	}
	if meta.Load {
		r.Flags |= FlagLoad
	}
	if meta.Store {
		r.Flags |= FlagStore
	}
	if meta.Branch {
		r.Flags |= FlagBranch
	}
	switch cls {
	case ClsPs, ClsGrr, ClsGrw:
		if in.G >= isa.NumGRegs {
			return IssueRec{}, fmt.Errorf("%s: global register g%d out of range", in.Op, in.G)
		}
		r.Imm = int32(in.G)
	}
	return r, nil
}
