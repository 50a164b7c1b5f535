package jobrun

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"xmtgo/internal/config"
	"xmtgo/internal/sim/checkpoint"
	"xmtgo/internal/sim/cycle"
)

// roundsSrc alternates a parallel update with a serial reduction and prints
// after every round, so a run crosses many quiescent points, output is
// spread over the whole run, and the cluster shards have work to split
// across host workers.
const roundsSrc = `
int A[128];
int main() {
    for (int r = 1; r <= 6; r++) {
        spawn(0, 127) {
            A[$] = A[$] + $ * r;
        }
        int s = 0;
        for (int i = 0; i < 128; i++) {
            s += A[i];
        }
        print_int(s);
        print_char(32);
    }
    return 0;
}
`

var errStop = errors.New("stop")

// recorder is a Checkpointed hook that keeps every state it accepts and
// fails the n-th call (1-based; 0 = never) with errStop.
type recorder struct {
	failAt   int
	calls    int
	accepted []*checkpoint.State
	refused  *checkpoint.State
}

func (rc *recorder) hook(next *checkpoint.State) error {
	rc.calls++
	if rc.calls == rc.failAt {
		rc.refused = next
		return errStop
	}
	rc.accepted = append(rc.accepted, next)
	return nil
}

// sameState requires two resume states to agree on everything
// architectural and on the program totals they carry and, unless the
// checkpoint histories differ, on the cycle too. Nil is the start.
func sameState(t *testing.T, what string, got, want *checkpoint.State, cycles bool) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: state nil=%v, want nil=%v", what, got == nil, want == nil)
	}
	if got == nil {
		return
	}
	if got.Output != want.Output || got.InstrCount != want.InstrCount || (cycles && got.CycleOffset != want.CycleOffset) {
		t.Fatalf("%s: output=%q instrs=%d cycle=%d, want %q / %d / %d",
			what, got.Output, got.InstrCount, got.CycleOffset, want.Output, want.InstrCount, want.CycleOffset)
	}
	sameRun := func(a, b checkpoint.Run) bool { return a.Addr == b.Addr && bytes.Equal(a.Data, b.Data) }
	if got.MemBytes != want.MemBytes || !slices.EqualFunc(got.Pages, want.Pages, sameRun) || got.G != want.G {
		t.Fatalf("%s: memory or global registers differ", what)
	}
}

// TestAttempt drives the runner through every way an attempt can end and
// resumes until the program halts: whatever the interruptions, the final
// state — memory, global registers, output, instruction count, cycle — is
// that of an uninterrupted run at the same checkpoint cadence, at
// host_workers 1 and 4. (Every segment is a fresh simulator with cold
// caches, so stopping at a checkpoint and resuming is the very computation
// that continuing is; a run with a different set of stops ends in the same
// architectural state a few cycles apart.) No files, no sockets.
func TestAttempt(t *testing.T) {
	prog, _, err := Load("xmtc", "rounds.c", roundsSrc)
	if err != nil {
		t.Fatal(err)
	}
	runner := func(workers int, every int64, rc *recorder) *Runner {
		cfg := config.FPGA64()
		cfg.HostWorkers = workers
		r := &Runner{Prog: prog, Config: cfg, CheckpointEvery: every}
		if rc != nil {
			r.Checkpointed = rc.hook
		}
		return r
	}
	probe, err := runner(1, 0, nil).Attempt(nil, 0)
	if err != nil || !probe.Halted {
		t.Fatalf("probe run: %+v, %v", probe, err)
	}
	every := probe.Cycles / 8
	var refRec recorder
	ref, err := runner(1, every, &refRec).Attempt(nil, 0)
	if err != nil || !ref.Halted || ref.Cycles != ref.State.CycleOffset || ref.Output != ref.State.Output {
		t.Fatalf("reference run: %+v, %v", ref, err)
	}
	sameState(t, "reference vs run without checkpoints", ref.State, probe.State, false)
	refStops := refRec.accepted

	// Each case interrupts a run in its own way, checks what the
	// interrupted attempt returned, and hands back the state to resume
	// from; the loop below finishes the job from there.
	cases := []struct {
		name      string
		extraStop bool // stops where the reference run has no checkpoint
		interrupt func(t *testing.T, workers int) *checkpoint.State
	}{
		{"stop at checkpoint 3", false, func(t *testing.T, workers int) *checkpoint.State {
			rc := &recorder{failAt: 3}
			out, err := runner(workers, every, rc).Attempt(nil, 0)
			if !errors.Is(err, errStop) || out.Halted || len(rc.accepted) != 2 {
				t.Fatalf("out=%+v err=%v accepted=%d", out, err, len(rc.accepted))
			}
			sameState(t, "returned state", out.State, refStops[1], true)
			sameState(t, "refused state", rc.refused, refStops[2], true)
			if out.Cycles != rc.refused.CycleOffset || out.Output != rc.refused.Output {
				t.Fatalf("stopped at cycle %d output %q, want checkpoint 3's %d / %q",
					out.Cycles, out.Output, rc.refused.CycleOffset, rc.refused.Output)
			}
			// A caller that persisted checkpoint 3 before asking for the
			// stop (preemption, drain, interrupt) resumes from it.
			return rc.refused
		}},
		{"Checkpointed fails", false, func(t *testing.T, workers int) *checkpoint.State {
			rc := &recorder{failAt: 1}
			out, err := runner(workers, every, rc).Attempt(nil, 0)
			if !errors.Is(err, errStop) || out.Halted {
				t.Fatalf("out=%+v err=%v", out, err)
			}
			// Nothing was accepted: a retry starts over.
			sameState(t, "returned state", out.State, nil, true)
			return out.State
		}},
		{"budget exhausted at the resume offset", false, func(t *testing.T, workers int) *checkpoint.State {
			rc := &recorder{failAt: 3}
			r := runner(workers, every, rc)
			if _, err := r.Attempt(nil, 0); !errors.Is(err, errStop) {
				t.Fatal(err)
			}
			from := rc.accepted[1]
			rc.failAt = 0
			out, err := r.Attempt(from, from.CycleOffset)
			if err != nil || out.Halted || out.Cycles != from.CycleOffset || rc.calls != 3 {
				t.Fatalf("out=%+v err=%v calls=%d, want an immediate timeout at cycle %d", out, err, rc.calls, from.CycleOffset)
			}
			sameState(t, "returned state", out.State, from, true)
			return out.State
		}},
		{"budget exhausted mid-segment", false, func(t *testing.T, workers int) *checkpoint.State {
			rc := &recorder{}
			budget := ref.Cycles/2 + every/2
			out, err := runner(workers, every, rc).Attempt(nil, budget)
			if err != nil || out.Halted || out.Cycles != budget || len(rc.accepted) == 0 {
				t.Fatalf("out=%+v err=%v accepted=%d, want a timeout at cycle %d", out, err, len(rc.accepted), budget)
			}
			sameState(t, "returned state", out.State, refStops[len(rc.accepted)-1], true)
			return out.State
		}},
		{"simulation error mid-segment", false, func(t *testing.T, workers int) *checkpoint.State {
			// The shared cache modules freeze for good right after the
			// fourth checkpoint (a stall is simulator state, not
			// architectural: it has to wedge the run before the next stop
			// or it is gone); the watchdog reports the wedge.
			rc := &recorder{}
			r := runner(workers, every, rc)
			r.Config.FaultPlan = fmt.Sprintf("cachestall:64x100000000@%d-%d", refStops[3].CycleOffset+1, refStops[3].CycleOffset+10)
			r.Config.WatchdogCycles = 2000
			out, err := r.Attempt(nil, 0)
			if err == nil || out.Halted || len(rc.accepted) != 4 {
				t.Fatalf("out=%+v err=%v accepted=%d, want a watchdog error after checkpoint 4", out, err, len(rc.accepted))
			}
			sameState(t, "returned state", out.State, refStops[3], true)
			if out.Cycles <= out.State.CycleOffset {
				t.Fatalf("failed at cycle %d with last checkpoint at %d", out.Cycles, out.State.CycleOffset)
			}
			return out.State
		}},
		{"stop request inside Started", true, func(t *testing.T, workers int) *checkpoint.State {
			// No periodic checkpoints: only the request delivered while
			// the first segment was being set up can stop it.
			rc := &recorder{failAt: 1}
			r := runner(workers, 0, rc)
			segments := 0
			r.Started = func(sys *cycle.System) {
				if segments++; segments == 1 {
					sys.RequestCheckpoint()
				}
			}
			out, err := r.Attempt(nil, 0)
			if !errors.Is(err, errStop) || out.Cycles == 0 || out.Cycles >= every {
				t.Fatalf("out=%+v err=%v, want a stop at the first quiescent point", out, err)
			}
			return rc.refused
		}},
	}
	for _, workers := range []int{1, 4} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				from := c.interrupt(t, workers)
				rc := &recorder{}
				out, err := runner(workers, every, rc).Attempt(from, 0)
				if err != nil || !out.Halted {
					t.Fatalf("resumed run: %+v, %v", out, err)
				}
				sameState(t, "final state", out.State, ref.State, !c.extraStop)
				if out.Cycles != out.State.CycleOffset || out.Output != ref.Output {
					t.Fatalf("final cycles=%d output=%q, want %d / %q", out.Cycles, out.Output, out.State.CycleOffset, ref.Output)
				}
			})
		}
	}
}

func TestBudget(t *testing.T) {
	for _, c := range []struct {
		base    int64
		backoff float64
		retry   int
		want    int64
	}{
		{1000, 2, 0, 1000},
		{1000, 2, 3, 8000},
		{1000, 1.5, 2, 2250},
		{0, 2, 3, 0}, // unlimited stays unlimited
	} {
		if got := Budget(c.base, c.backoff, c.retry); got != c.want {
			t.Errorf("Budget(%d, %v, %d) = %d, want %d", c.base, c.backoff, c.retry, got, c.want)
		}
	}
}

func TestLoadRejects(t *testing.T) {
	if _, _, err := Load("fortran", "x", "x"); !errors.Is(err, ErrKind) {
		t.Errorf("unknown kind: %v, want ErrKind", err)
	}
	// Parses and assembles; only the post-pass refuses a call in parallel
	// code.
	_, _, err := Load("asm", "bad.s", `
        .text
main:   spawn $t0, $t1
L:      chkid $t2
        jal helper
        j L
        join
helper: jr $ra
`)
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("bad.s:5:")) {
		t.Errorf("illegal parallel code: %v, want a post-pass error at bad.s:5", err)
	}
}
