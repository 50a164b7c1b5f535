package cycle

import (
	"bytes"
	"fmt"
	"testing"

	"xmtgo/internal/asm"
	"xmtgo/internal/codegen"
	"xmtgo/internal/config"
	"xmtgo/internal/isa"
)

// serialMemSrc and serialComputeSrc are Table I's serial rows
// (workloads.TableI, restated because internal/workloads imports this
// package): a serial loop of cache-hitting loads, stores and remainders, and
// one of multiplies.
func serialMemSrc(work int) string {
	return fmt.Sprintf(`
int A[%d];
int main() {
    int i, s = 0;
    for (i = 0; i < %d; i++) {
        s += A[(i * 97) %% %d];
        A[(i * 89 + 13) %% %d] = s;
    }
    print_int(s);
    return 0;
}`, work, work, work, work)
}

func serialComputeSrc(work int) string {
	return fmt.Sprintf(`
int main() {
    int i, x = 1;
    for (i = 0; i < %d; i++) {
        x = x * 1103515245 + 12345;
        x = x ^ (x >> 7);
    }
    print_int(x == 0 ? 0 : 1);
    return 0;
}`, work)
}

// divLoop is a serial loop of divides: a 16-cycle master stall per
// iteration, so most cycles a budget can end on lie inside one.
const divLoop = `
        .text
main:   li    $t0, 400
        li    $t1, 7
L:      div   $t2, $t0, $t1
        addiu $t0, $t0, -1
        bgtz  $t0, L
        sys   0
`

// compileC compiles and assembles an XMTC program.
func compileC(t *testing.T, src string) *asm.Program {
	t.Helper()
	res, err := codegen.Compile("prog.c", src, codegen.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(res.Unit)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// masterPeriodCycler re-bases the master clock every interval cluster
// cycles, so stalls straddle changes of the master's edge grid.
func masterPeriodCycler(interval int64) ActivityPlugin {
	n := 0
	return pluginFunc{name: "master-dvfs", interval: interval, fn: func(_ *Snapshot, ctl *Control) {
		n++
		if err := ctl.SetPeriod("master", []int64{8, 13, 24}[n%3]); err != nil {
			panic(err)
		}
	}}
}

// TestMasterStallSleep runs serial sections under the invariant check after
// every event. A stalled master sleeps to the edge its stall ends on, clamped
// to the next pending event (Master.sleep), where it used to be notified on
// every edge to compare its cycle with the stall's end. Each row pins Result
// to the value the per-edge poll gave, and Sched.Executed to the count
// without the polls (parent: the count with them): Table I's serial rows at
// small work on both presets, a cycle budget that ends inside a divide's
// stall, and plug-ins that re-base the master clock every k cycles.
func TestMasterStallSleep(t *testing.T) {
	type want struct {
		res            Result
		executed       uint64 // Sched.Executed
		parentExecuted uint64 // Sched.Executed with a poll per stalled master edge
	}
	mem, compute := serialMemSrc(300), serialComputeSrc(300)
	rows := []struct {
		name   string
		src    string // XMTC, or assembly when asm is set
		asm    bool
		cfg    config.Config
		plugin ActivityPlugin
		budget int64 // cluster cycles; 0 runs to the halt
		want   want
	}{
		{"serial-mem-fpga64", mem, false, config.FPGA64(), nil, 0, want{Result{Cycles: 19840, Ticks: 158720, Instrs: 6912, Halted: true}, 8861, 19063}},
		{"serial-mem-chip1024", mem, false, config.Chip1024(), nil, 0, want{Result{Cycles: 18930, Ticks: 151440, Instrs: 6912, Halted: true}, 6079, 15757}},
		{"serial-compute-fpga64", compute, false, config.FPGA64(), nil, 0, want{Result{Cycles: 4818, Ticks: 38544, Instrs: 3918, Halted: true}, 3918, 4818}},
		{"serial-compute-chip1024", compute, false, config.Chip1024(), nil, 0, want{Result{Cycles: 3012, Ticks: 24096, Instrs: 3918, Halted: true}, 2112, 3012}},
		{"div-budget", divLoop, true, config.FPGA64(), nil, 3001, want{Result{Cycles: 3001, Ticks: 24008, Instrs: 501, TimedOut: true}, 502, 3001}},
		{"master-dvfs-every3", compute, false, config.FPGA64(), masterPeriodCycler(3), 0, want{Result{Cycles: 6771, Ticks: 54168, Instrs: 3918, Halted: true}, 13992, 14291}},
		{"master-dvfs-every10", mem, false, config.FPGA64(), masterPeriodCycler(10), 0, want{Result{Cycles: 29144, Ticks: 233159, Instrs: 6912, Halted: true}, 23364, 32122}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			row.cfg.MemBytes = 1 << 20
			var s *System
			if row.asm {
				s, _ = buildSys(t, row.src, row.cfg)
			} else {
				var err error
				if s, err = New(compileC(t, row.src), row.cfg, &bytes.Buffer{}); err != nil {
					t.Fatal(err)
				}
			}
			if row.plugin != nil {
				s.AddActivityPlugin(row.plugin)
			}
			budget := row.budget
			if budget == 0 {
				budget = 10_000_000
			}
			stepRunFor(t, s, budget, nil)
			res, err := s.result(budget)
			if err != nil {
				t.Fatal(err)
			}
			got := want{res: *res, executed: s.Sched.Executed, parentExecuted: row.want.parentExecuted}
			if got != row.want {
				t.Errorf("got  %+v\nwant %+v", got, row.want)
			}
			if got.executed >= row.want.parentExecuted {
				t.Errorf("%d events, not fewer than the %d of the per-edge poll", got.executed, row.want.parentExecuted)
			}
			if row.budget > 0 {
				mt := s.master
				cycle := s.masterClock.Cycle(s.Sched.Now())
				if op := isa.Op(s.issue[mt.ctx.PC-1].Op); mt.state != masterStalled || cycle >= mt.stallUntil || op != isa.OpDiv {
					t.Errorf("budget ended at master cycle %d in state %d (stall until %d, after %v), not inside a div stall",
						cycle, mt.state, mt.stallUntil, op)
				}
			}
		})
	}
}
