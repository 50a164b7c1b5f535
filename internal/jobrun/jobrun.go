// Package jobrun is the one place that knows how a simulation job executes:
// a chain of cycle-accurate segments separated by checkpoint stops, run
// under an absolute cycle budget, resumable from any checkpoint it reached
// (paper §III-E: checkpoints exist so long campaigns run in restartable
// pieces). The xmtd daemon drives a Runner, and xmtbatch reaches it through
// the daemon's core run in-process. What the caller decides — where a
// checkpoint is persisted, who may ask a running job to stop, what is
// logged — arrives through the two hooks.
package jobrun

import (
	"math"

	"xmtgo/internal/asm"
	"xmtgo/internal/config"
	"xmtgo/internal/sim/checkpoint"
	"xmtgo/internal/sim/cycle"
	"xmtgo/internal/sim/metrics"
)

// Runner runs attempts of one job.
type Runner struct {
	Prog   *asm.Program
	Config config.Config
	// CheckpointEvery stops each segment at the first quiescent point after
	// this many cluster cycles (0 = only requested checkpoints stop it).
	CheckpointEvery int64

	// Monitor, when set, receives interval samples from every segment,
	// labeled Job, every Config.SampleCycles cycles (0 = the metrics default).
	Monitor *metrics.Server
	Job     string

	// Started, when set, is called with each segment's simulator before it
	// runs, so the caller can deliver (RequestCheckpoint) a stop request
	// that raced with its construction.
	Started func(*cycle.System)
	// Checkpointed, when set, is called at every checkpoint stop with the
	// state just reached. The caller persists it and returns nil to run the
	// next segment, or an error to end the attempt with that error.
	Checkpointed func(next *checkpoint.State) error
}

// Outcome is how one attempt ended.
type Outcome struct {
	// State is the final machine state when Halted. Otherwise it is the
	// last checkpoint Checkpointed accepted during the attempt (the
	// attempt's starting state if none, nil for the start): where a retry
	// resumes.
	State *checkpoint.State
	// Halted reports that the program ran to its halt. Not halted with a
	// nil error means the cycle budget ran out.
	Halted bool
	// Cycles is the absolute cycle the attempt stopped at.
	Cycles int64
	// Output is everything the job has printed so far, including what a
	// failed or timed-out segment printed after State.
	Output string
}

// Attempt runs segments from the given checkpoint (nil = from the start)
// until the program halts, the absolute cycle budget (0 = unlimited) runs
// out, the simulation fails, or Checkpointed ends it. The error is the
// simulation's or Checkpointed's. Each segment is a fresh simulator resumed
// from the last state, which carries the run's cycle, instruction and
// output totals; its memory goes back to the pool (System.Release) once the
// segment's state is captured, so the next segment or job reuses it.
func (r *Runner) Attempt(from *checkpoint.State, budget int64) (Outcome, error) {
	end := Outcome{State: from}
	if from != nil {
		end.Cycles, end.Output = from.CycleOffset, from.Output
	}
	for {
		segBudget := int64(0)
		if budget > 0 {
			if segBudget = budget - end.Cycles; segBudget <= 0 {
				return end, nil
			}
		}
		sys, err := cycle.New(r.Prog, r.Config, nil)
		if err != nil {
			return end, err
		}
		if end.State != nil {
			if err := sys.RestoreState(end.State); err != nil {
				sys.Release()
				return end, err
			}
		}
		sys.CheckpointEvery(r.CheckpointEvery)
		if r.Started != nil {
			r.Started(sys)
		}
		var smp *metrics.Sampler
		if r.Monitor != nil {
			interval := r.Config.SampleCycles
			if interval <= 0 {
				interval = metrics.DefaultSampleCycles
			}
			smp = metrics.Attach(sys, interval)
			smp.SetServer(r.Monitor)
			smp.SetJob(r.Job)
		}

		res, err := sys.Run(segBudget)
		if smp != nil {
			smp.Finalize(res.Cycles, int64(res.Ticks), sys.Stats, sys.AliveTCUs())
		}
		end.Cycles, end.Output = res.Cycles, sys.Machine.Output()
		var reached *checkpoint.State
		if err == nil && !res.TimedOut {
			reached = sys.Capture()
		}
		sys.Release()
		if reached == nil {
			return end, err
		}
		if res.Halted {
			end.State, end.Halted = reached, true
			return end, nil
		}
		if r.Checkpointed != nil {
			if err := r.Checkpointed(reached); err != nil {
				return end, err
			}
		}
		end.State = reached
	}
}

// Budget is the one backoff rule: the cycle budget (or watchdog window) of
// retry n is base × backoff^n. A zero base means unlimited and stays zero.
func Budget(base int64, backoff float64, retry int) int64 {
	if base <= 0 || retry <= 0 {
		return base
	}
	return int64(float64(base) * math.Pow(backoff, float64(retry)))
}
