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

// word is one lowered instruction: handlers plus fully pre-resolved
// operands. The dispatch loop calls a handler and continues at the
// returned word; a nil return stops dispatch (halt, error, checkpoint
// pause). Control flow is threaded as direct pointers — nextw and tgtw
// point at the successor words — so the hot loop never indexes the word
// stream (only jr/jalr, whose targets are dynamic, pay an indexed lookup).
//
// plain executes this one instruction. run is what the untraced dispatch
// loop calls: plain again, or — when the word starts one of the compiler's
// idioms — a superinstruction that executes all span members of the idiom
// (this word and the span-1 words after it) in one dispatch. Every member
// keeps its own plain handler, so a jump into the middle of an idiom, a
// resume at any pc and a budget that ends inside one stay exact.
type word struct {
	run   func(*VM, *word) *word
	plain func(*VM, *word) *word

	nextw *word // fallthrough successor (sentinel: nil)
	tgtw  *word // resolved branch target / post-join word for spawn

	d    uint8 // write slot (zeroSink when the op writes $zero or nothing)
	s    uint8 // read slot of Rs
	t    uint8 // read slot of Rt, or of Rd for ops that read Rd
	g    uint8 // global register index, pre-masked to 0..63
	span uint8 // instructions run executes: 1, or the fused idiom's length
	x    uint8 // fused: read slot of the addu member's other operand

	imm  int32 // folded immediate (masked/shifted at lowering)
	tgt  int32 // resolved branch target / post-join pc for spawn
	next int32 // own index + 1: fallthrough pc, jal link value
	k    int32 // fused lui+ori: the folded 32-bit constant
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
// cycle model's issue records (issue.go). All decode decisions move here:
// register numbers become file slots, immediates are folded (andi/ori/xori
// masked, lui pre-shifted, shift amounts clamped), branch targets become
// absolute pc values, and spawn/ps/psm get dedicated handlers, sys one per
// trap code. A peephole pass (fuse) then gives the words that start the
// compiler's address and loop idioms a superinstruction.
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
			w.plain = hNop

		// Integer ALU.
		case isa.OpAdd, isa.OpAddu:
			w.plain = hAdd
		case isa.OpSub, isa.OpSubu:
			w.plain = hSub
		case isa.OpAnd:
			w.plain = hAnd
		case isa.OpOr:
			w.plain = hOr
		case isa.OpXor:
			w.plain = hXor
		case isa.OpNor:
			w.plain = hNor
		case isa.OpSlt:
			w.plain = hSlt
		case isa.OpSltu:
			w.plain = hSltu
		case isa.OpAddi, isa.OpAddiu:
			w.plain = hAddi
		case isa.OpAndi:
			w.plain = hAndi
			w.imm = in.Imm & 0xffff
		case isa.OpOri:
			w.plain = hOri
			w.imm = in.Imm & 0xffff
		case isa.OpXori:
			w.plain = hXori
			w.imm = in.Imm & 0xffff
		case isa.OpSlti:
			w.plain = hSlti
		case isa.OpSltiu:
			w.plain = hSltiu
		case isa.OpLui:
			w.plain = hLui
			w.imm = in.Imm << 16

		// Shifts.
		case isa.OpSll:
			w.plain = hSll
			w.imm = in.Imm & 31
		case isa.OpSrl:
			w.plain = hSrl
			w.imm = in.Imm & 31
		case isa.OpSra:
			w.plain = hSra
			w.imm = in.Imm & 31
		case isa.OpSllv:
			w.plain = hSllv
		case isa.OpSrlv:
			w.plain = hSrlv
		case isa.OpSrav:
			w.plain = hSrav

		// Multiply/divide.
		case isa.OpMul:
			w.plain = hMul
		case isa.OpMulu:
			w.plain = hMulu
		case isa.OpDiv:
			w.plain = hDiv
		case isa.OpDivu:
			w.plain = hDivu
		case isa.OpRem:
			w.plain = hRem
		case isa.OpRemu:
			w.plain = hRemu

		// Floating point.
		case isa.OpAddS:
			w.plain = hAddS
		case isa.OpSubS:
			w.plain = hSubS
		case isa.OpMulS:
			w.plain = hMulS
		case isa.OpDivS:
			w.plain = hDivS
		case isa.OpAbsS:
			w.plain = hAbsS
		case isa.OpNegS:
			w.plain = hNegS
		case isa.OpSqrtS:
			w.plain = hSqrtS
		case isa.OpCvtSW:
			w.plain = hCvtSW
		case isa.OpCvtWS:
			w.plain = hCvtWS
		case isa.OpCeqS:
			w.plain = hCeqS
		case isa.OpCltS:
			w.plain = hCltS
		case isa.OpCleS:
			w.plain = hCleS

		// Branches and jumps. Static targets are resolved below.
		case isa.OpBeq:
			w.plain = hBeq
		case isa.OpBne:
			w.plain = hBne
		case isa.OpBlez:
			w.plain = hBlez
		case isa.OpBgtz:
			w.plain = hBgtz
		case isa.OpBltz:
			w.plain = hBltz
		case isa.OpBgez:
			w.plain = hBgez
		case isa.OpJ:
			w.plain = hJ
		case isa.OpJal:
			w.plain = hJal
			w.d = uint8(isa.RegRA)
		case isa.OpJr:
			w.plain = hJr
		case isa.OpJalr:
			w.plain = hJalr
			w.d = uint8(isa.RegRA)

		// Memory.
		case isa.OpLw, isa.OpLwRO:
			w.plain = hLw
		case isa.OpLb:
			w.plain = hLb
		case isa.OpLbu:
			w.plain = hLbu
		case isa.OpSw, isa.OpSwNB:
			w.plain = hSw
			w.t = uint8(in.Rd) // store data register
		case isa.OpSb:
			w.plain = hSb
			w.t = uint8(in.Rd)
		case isa.OpPref:
			w.plain = hPref

		// XMT extensions.
		case isa.OpSpawn:
			region := p.RegionOf(i + 1)
			if region == nil || region.Spawn != i {
				w.plain = hSpawnBad
				w.imm = int32(i)
			} else {
				w.plain = hSpawn
				w.tgt = int32(region.Join) + 1
			}
		case isa.OpJoin:
			w.plain = hJoin
		case isa.OpChkid:
			w.plain = hChkid
			w.t = uint8(in.Rd)
		case isa.OpPs:
			w.plain = hPs
			w.t = uint8(in.Rd) // ps reads Rd as the increment
		case isa.OpPsm:
			w.plain = hPsm
			w.t = uint8(in.Rd)
		case isa.OpGrr:
			w.plain = hGrr
		case isa.OpGrw:
			w.plain = hGrw
			w.t = uint8(in.Rd)
		case isa.OpBcast:
			w.plain = hBcast
			w.t = uint8(in.Rd)

		case isa.OpSys:
			switch in.Imm {
			case isa.SysHalt:
				w.plain = hSysHalt
			case isa.SysPrintInt:
				w.plain = hSysPrintInt
			case isa.SysPrintChar:
				w.plain = hSysPrintChar
			case isa.SysPrintStr:
				w.plain = hSysPrintStr
			case isa.SysCycle:
				w.plain = hSysCycle
			case isa.SysCheckpoint:
				w.plain = hSysCheckpoint
			case isa.SysPrintFloat:
				w.plain = hSysPrintFloat
			default:
				w.plain = hSysBad
			}

		default:
			w.plain = hBadOp
		}

		// A static branch whose linked target is outside the program must
		// fail only when taken, exactly like the interpreter; stash the
		// original target for the error message.
		if in.Op.IsBranch() && in.Op != isa.OpJr && in.Op != isa.OpJalr {
			if in.Target < 0 || in.Target >= n {
				w.plain = hBranchBad
				w.imm = int32(in.Target)
				w.tgt = 0
			} else {
				w.tgt = int32(in.Target)
			}
		}
	}
	// Fall-off sentinel: reached only by sequential flow past the last
	// instruction (all taken branch targets are validated).
	words[n] = word{run: hOutside, plain: hOutside, span: 1, next: int32(n) + 1}
	// Thread the control flow as direct pointers. Every tgt is a validated
	// index in [0, n] by this point (branch targets < n, spawn's join+1
	// <= n), so tgtw is always in-slice; words whose handlers never jump
	// just carry a harmless pointer to words[0].
	for i := 0; i < n; i++ {
		w := &words[i]
		w.nextw = &words[i+1]
		w.tgtw = &words[w.tgt]
		w.run, w.span = w.plain, 1
	}
	fuse(p.Text, words)
	return c
}

// maxSpan is the longest idiom fuse matches. The dispatch loop runs fused
// words only while at least maxSpan instructions remain in the budget, so
// a budget never ends inside one.
const maxSpan = 5

// fuse is the peephole pass: it gives word i a superinstruction when
// text[i:i+k] is one of these idioms of the compiler's output, matched by
// opcode and by register dependency:
//
//	lui a, hi; ori b, a, lo                     constant (folded into k)
//	sll a, r, sh; addu b, a, x                  scaled index
//	sll a, r, sh; addu b, a, x; lw d, o(b)      indexed load
//	lui; ori; sll a; addu b, a, x; lw|sw|sw.nb|pref o(b)
//	                                            global-array access
//	addiu a, r, i; addu b, a, x [; j L]         increment, move, back edge
//	slt|slti a, ...; bgtz a, L                  loop test
//
// The dependency — each member reads the previous member's destination,
// which is not $zero, and addu's other operand x is not that register —
// lets a handler keep the intermediate value in a local. Every member's
// register write still happens, in order, and only the last member can
// branch or fault, so a fault reports that member's pc with an exact
// instruction count. A static branch lowered to hBranchBad is never a
// member.
func fuse(text []isa.Instr, words []word) {
	n := len(text)
	// feeds reports whether text[j] is op and reads text[i]'s destination
	// (not $zero) as its base (Rs).
	feeds := func(i, j int, ops ...isa.Op) bool {
		if j >= n || text[i].Rd == isa.RegZero || text[j].Rs != text[i].Rd {
			return false
		}
		for _, op := range ops {
			if text[j].Op == op {
				return true
			}
		}
		return false
	}
	// adds reports whether text[i] is op and text[i+1] an addu that reads
	// text[i]'s destination (not $zero) as exactly one operand, and
	// returns the other operand.
	adds := func(i int, op isa.Op) (isa.Reg, bool) {
		if i+1 >= n || text[i].Op != op || text[i+1].Op != isa.OpAddu || text[i].Rd == isa.RegZero {
			return 0, false
		}
		a, d := &text[i+1], text[i].Rd
		switch {
		case a.Rs == d && a.Rt != d:
			return a.Rt, true
		case a.Rt == d && a.Rs != d:
			return a.Rs, true
		}
		return 0, false
	}
	// branch reports whether text[j] is op with a target inside the
	// program (hBranchBad is never fused).
	branch := func(j int, op isa.Op) bool {
		return j < n && text[j].Op == op && text[j].Target >= 0 && text[j].Target < n
	}
	for i := range text {
		w := &words[i]
		var h func(*VM, *word) *word
		span := 2
		switch op := text[i].Op; op {
		case isa.OpLui:
			if !feeds(i, i+1, isa.OpOri) {
				break
			}
			w.k = w.imm | words[i+1].imm
			h = hLuiOri
			if x, ok := adds(i+2, isa.OpSll); ok {
				switch {
				case feeds(i+3, i+4, isa.OpLw, isa.OpLwRO):
					h, span, w.x = hAddrLw, 5, uint8(x)
				case feeds(i+3, i+4, isa.OpSw, isa.OpSwNB):
					h, span, w.x = hAddrSw, 5, uint8(x)
				case feeds(i+3, i+4, isa.OpPref):
					h, span, w.x = hAddrPref, 5, uint8(x)
				}
			}
		case isa.OpSll, isa.OpAddiu:
			x, ok := adds(i, op)
			if !ok {
				break
			}
			w.x = uint8(x)
			switch {
			case op == isa.OpSll && feeds(i+1, i+2, isa.OpLw, isa.OpLwRO):
				h, span = hSllAdduLw, 3
			case op == isa.OpSll:
				h = hSllAddu
			case branch(i+2, isa.OpJ):
				h, span = hAddiuAdduJ, 3
			default:
				h = hAddiuAddu
			}
		case isa.OpSlt, isa.OpSlti:
			if !feeds(i, i+1, isa.OpBgtz) || !branch(i+1, isa.OpBgtz) {
				break
			}
			h = hSltBgtz
			if op == isa.OpSlti {
				h = hSltiBgtz
			}
		}
		if h != nil {
			w.run, w.span = h, uint8(span)
		}
	}
}
