package funcvm

import (
	"fmt"

	"xmtgo/internal/asm"
	"xmtgo/internal/isa"
)

// backendName keys the lowered form in asm.Program's lowering cache.
const backendName = "funcvm"

// zeroSink is the register-file slot that absorbs writes to $zero. Read
// slots are always the architectural register number (0..31); write slots
// are the register number except $zero, which maps here so handlers never
// branch on the destination.
const zeroSink = 32

// regSlots sizes the VM register file so a uint8 slot index can never be
// out of range, eliminating bounds checks on every register access.
const regSlots = 256

// word is one lowered instruction: a handler plus fully pre-resolved
// operands. The dispatch loop calls run and continues at the returned
// word; a nil return stops dispatch (halt, error, checkpoint pause).
// Control flow is threaded as direct pointers — nextw and tgtw point at
// the successor words — so the hot loop never indexes the word stream
// (only jr/jalr, whose targets are dynamic, pay an indexed lookup).
type word struct {
	run func(*VM, *word) *word

	nextw *word // fallthrough successor (sentinel: nil)
	tgtw  *word // resolved branch target / post-join word for spawn

	d uint8 // write slot (zeroSink when the op writes $zero or nothing)
	s uint8 // read slot of Rs
	t uint8 // read slot of Rt, or of Rd for ops that read Rd
	g uint8 // global register index, pre-masked to 0..63

	imm  int32 // folded immediate (masked/shifted at lowering)
	tgt  int32 // resolved branch target / post-join pc for spawn
	next int32 // own index + 1: fallthrough pc, jal link value
}

// Code is the immutable lowered form of one program: a flat word stream
// with a trailing fall-off sentinel for the bytecode VM, and the parallel
// issue-record stream the cycle-accurate model dispatches on. Both come out
// of the one lowering pass and are shareable by any number of machines.
type Code struct {
	words []word
	text  []isa.Instr // the source instructions, for traces and errors

	issue    []IssueRec
	issueErr error // first instruction the cycle model cannot issue, if any
}

// Issue returns the program's issue-record stream, indexed by pc. It fails
// when some instruction has no issue class or does not fit a record: the
// cycle model refuses such a program when it is built, not when a TCU
// reaches the instruction.
func (c *Code) Issue() ([]IssueRec, error) { return c.issue, c.issueErr }

// Len returns the number of program instructions (excluding the sentinel).
func (c *Code) Len() int { return len(c.text) }

// NewCode returns the lowered form of p, reusing the program's cached
// lowering when one exists so batch drivers and benchmarks pay the
// compilation cost once per program.
func NewCode(p *asm.Program) *Code {
	if v, ok := p.CachedLowered(backendName); ok {
		if c, ok := v.(*Code); ok {
			return c
		}
	}
	c := lower(p)
	p.StoreLowered(backendName, c)
	return c
}

// wslot maps a destination register to its write slot.
func wslot(r isa.Reg) uint8 {
	if r == isa.RegZero {
		return zeroSink
	}
	return uint8(r)
}

// lower compiles the assembled program into the flat word stream and the
// cycle model's issue records (issue.go). All decode decisions move here: register numbers become file slots,
// immediates are folded (andi/ori/xori masked, lui pre-shifted, shift
// amounts clamped), branch targets become absolute pc values, and
// spawn/ps/psm/sys become dedicated superinstruction handlers.
func lower(p *asm.Program) *Code {
	n := len(p.Text)
	words := make([]word, n+1)
	c := &Code{words: words, text: p.Text, issue: make([]IssueRec, n)}
	for i := 0; i < n; i++ {
		in := p.Text[i]
		w := &words[i]
		if rec, err := lowerIssue(&p.Text[i]); err != nil {
			if c.issueErr == nil {
				c.issueErr = fmt.Errorf("lower: instruction %d (asm line %d): %v", i, in.Line, err)
			}
		} else {
			c.issue[i] = rec
		}
		w.next = int32(i) + 1
		w.d = wslot(in.Rd)
		w.s = uint8(in.Rs)
		w.t = uint8(in.Rt)
		w.g = uint8(in.G) & 63
		w.imm = in.Imm

		switch in.Op {
		case isa.OpNop, isa.OpFence:
			// fence is a functional no-op: this backend, like the
			// interpreter, has no pending memory operations.
			w.run = hNop

		// Integer ALU.
		case isa.OpAdd, isa.OpAddu:
			w.run = hAdd
		case isa.OpSub, isa.OpSubu:
			w.run = hSub
		case isa.OpAnd:
			w.run = hAnd
		case isa.OpOr:
			w.run = hOr
		case isa.OpXor:
			w.run = hXor
		case isa.OpNor:
			w.run = hNor
		case isa.OpSlt:
			w.run = hSlt
		case isa.OpSltu:
			w.run = hSltu
		case isa.OpAddi, isa.OpAddiu:
			w.run = hAddi
		case isa.OpAndi:
			w.run = hAndi
			w.imm = in.Imm & 0xffff
		case isa.OpOri:
			w.run = hOri
			w.imm = in.Imm & 0xffff
		case isa.OpXori:
			w.run = hXori
			w.imm = in.Imm & 0xffff
		case isa.OpSlti:
			w.run = hSlti
		case isa.OpSltiu:
			w.run = hSltiu
		case isa.OpLui:
			w.run = hLui
			w.imm = in.Imm << 16

		// Shifts.
		case isa.OpSll:
			w.run = hSll
			w.imm = in.Imm & 31
		case isa.OpSrl:
			w.run = hSrl
			w.imm = in.Imm & 31
		case isa.OpSra:
			w.run = hSra
			w.imm = in.Imm & 31
		case isa.OpSllv:
			w.run = hSllv
		case isa.OpSrlv:
			w.run = hSrlv
		case isa.OpSrav:
			w.run = hSrav

		// Multiply/divide.
		case isa.OpMul:
			w.run = hMul
		case isa.OpMulu:
			w.run = hMulu
		case isa.OpDiv:
			w.run = hDiv
		case isa.OpDivu:
			w.run = hDivu
		case isa.OpRem:
			w.run = hRem
		case isa.OpRemu:
			w.run = hRemu

		// Floating point.
		case isa.OpAddS:
			w.run = hAddS
		case isa.OpSubS:
			w.run = hSubS
		case isa.OpMulS:
			w.run = hMulS
		case isa.OpDivS:
			w.run = hDivS
		case isa.OpAbsS:
			w.run = hAbsS
		case isa.OpNegS:
			w.run = hNegS
		case isa.OpSqrtS:
			w.run = hSqrtS
		case isa.OpCvtSW:
			w.run = hCvtSW
		case isa.OpCvtWS:
			w.run = hCvtWS
		case isa.OpCeqS:
			w.run = hCeqS
		case isa.OpCltS:
			w.run = hCltS
		case isa.OpCleS:
			w.run = hCleS

		// Branches and jumps. Static targets are resolved below.
		case isa.OpBeq:
			w.run = hBeq
		case isa.OpBne:
			w.run = hBne
		case isa.OpBlez:
			w.run = hBlez
		case isa.OpBgtz:
			w.run = hBgtz
		case isa.OpBltz:
			w.run = hBltz
		case isa.OpBgez:
			w.run = hBgez
		case isa.OpJ:
			w.run = hJ
		case isa.OpJal:
			w.run = hJal
			w.d = uint8(isa.RegRA)
		case isa.OpJr:
			w.run = hJr
		case isa.OpJalr:
			w.run = hJalr
			w.d = uint8(isa.RegRA)

		// Memory.
		case isa.OpLw, isa.OpLwRO:
			w.run = hLw
		case isa.OpLb:
			w.run = hLb
		case isa.OpLbu:
			w.run = hLbu
		case isa.OpSw, isa.OpSwNB:
			w.run = hSw
			w.t = uint8(in.Rd) // store data register
		case isa.OpSb:
			w.run = hSb
			w.t = uint8(in.Rd)
		case isa.OpPref:
			w.run = hPref

		// XMT extensions.
		case isa.OpSpawn:
			region := p.RegionOf(i + 1)
			if region == nil || region.Spawn != i {
				w.run = hSpawnBad
				w.imm = int32(i)
			} else {
				w.run = hSpawn
				w.tgt = int32(region.Join) + 1
			}
		case isa.OpJoin:
			w.run = hJoin
		case isa.OpChkid:
			w.run = hChkid
			w.t = uint8(in.Rd)
		case isa.OpPs:
			w.run = hPs
			w.t = uint8(in.Rd) // ps reads Rd as the increment
		case isa.OpPsm:
			w.run = hPsm
			w.t = uint8(in.Rd)
		case isa.OpGrr:
			w.run = hGrr
		case isa.OpGrw:
			w.run = hGrw
			w.t = uint8(in.Rd)
		case isa.OpBcast:
			w.run = hBcast
			w.t = uint8(in.Rd)

		case isa.OpSys:
			switch in.Imm {
			case isa.SysHalt:
				w.run = hSysHalt
			case isa.SysPrintInt:
				w.run = hSysPrintInt
			case isa.SysPrintChar:
				w.run = hSysPrintChar
			case isa.SysPrintStr:
				w.run = hSysPrintStr
			case isa.SysCycle:
				w.run = hSysCycle
			case isa.SysCheckpoint:
				w.run = hSysCheckpoint
			case isa.SysPrintFloat:
				w.run = hSysPrintFloat
			default:
				w.run = hSysBad
			}

		default:
			w.run = hBadOp
		}

		// A static branch whose linked target is outside the program must
		// fail only when taken, exactly like the interpreter; stash the
		// original target for the error message.
		if in.Op.IsBranch() && in.Op != isa.OpJr && in.Op != isa.OpJalr {
			if in.Target < 0 || in.Target >= n {
				w.run = hBranchBad
				w.imm = int32(in.Target)
				w.tgt = 0
			} else {
				w.tgt = int32(in.Target)
			}
		}
	}
	// Fall-off sentinel: reached only by sequential flow past the last
	// instruction (all taken branch targets are validated).
	words[n] = word{run: hOutside, next: int32(n) + 1}
	// Thread the control flow as direct pointers. Every tgt is a validated
	// index in [0, n] by this point (branch targets < n, spawn's join+1
	// <= n), so tgtw is always in-slice; words whose handlers never jump
	// just carry a harmless pointer to words[0].
	for i := 0; i < n; i++ {
		words[i].nextw = &words[i+1]
		words[i].tgtw = &words[words[i].tgt]
	}
	return c
}
