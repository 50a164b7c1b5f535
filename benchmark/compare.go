package bench

import (
	"errors"
	"fmt"
	"io"
)

// ErrBreach is returned by Compare when b is worse than a beyond a bound.
// ErrUnresolved is returned when nothing is breached but some metric's
// spread exceeds its bound: the comparison says nothing about that metric,
// which must not be read as a pass.
var (
	ErrBreach     = errors.New("regression bound breached")
	ErrUnresolved = errors.New("spread exceeds the bound: comparison unresolved")
)

// Compare prints one row per (workload, end-to-end metric) with both
// medians, their ratio and the bound. A metric whose run-to-run spread on
// either side exceeds its bound is reported as unresolved, not as
// unchanged; a resolved metric that b worsens by more than the bound, or
// any new failed operation, is a breach. Results from machines with a
// different CPU model or core count, or from sets of a different shape, are
// refused.
func Compare(man *Manifest, a, b *ResultFile, w io.Writer) error {
	if a.Host.CPUModel != b.Host.CPUModel || a.Host.NProc != b.Host.NProc {
		return fmt.Errorf("refusing to compare across hosts: %q with %d cpus vs %q with %d cpus",
			a.Host.CPUModel, a.Host.NProc, b.Host.CPUModel, b.Host.NProc)
	}
	if a.Seconds != b.Seconds || a.Runs != b.Runs || a.Smoke != b.Smoke {
		return fmt.Errorf("refusing to compare sets of different shape: %d runs of %g s (smoke %v) vs %d runs of %g s (smoke %v)",
			a.Runs, a.Seconds, a.Smoke, b.Runs, b.Seconds, b.Smoke)
	}
	byName := func(rf *ResultFile, name string) *WorkloadResult {
		for i := range rf.Workloads {
			if rf.Workloads[i].Name == name {
				return &rf.Workloads[i]
			}
		}
		return nil
	}
	fmt.Fprintf(w, "a: commit %s, %d runs   b: commit %s, %d runs   host: %s, %d cpus\n\n",
		a.Host.Commit, a.Runs, b.Host.Commit, b.Runs, a.Host.CPUModel, a.Host.NProc)
	fmt.Fprintf(w, "%-16s %-16s %12s %12s %8s %8s %7s %6s  %s\n",
		"workload", "metric", "a median", "b median", "b/a", "worse", "spread", "bound", "verdict")

	breaches, unresolved, countDiffs := 0, 0, 0
	for _, wd := range man.Workloads {
		wa, wb := byName(a, wd.Name), byName(b, wd.Name)
		if wa == nil || wb == nil {
			return fmt.Errorf("workload %s missing from a result file", wd.Name)
		}
		for _, e := range man.EndToEnd {
			sa, sb := wa.EndToEnd[e.Name], wb.EndToEnd[e.Name]
			if sa.Median <= 0 || sb.Median <= 0 {
				return fmt.Errorf("%s %s: a result file has no value (a %v, b %v)", wd.Name, e.Name, sa.Median, sb.Median)
			}
			worse := (sb.Median - sa.Median) / sa.Median
			if e.Better == "higher" {
				worse = -worse
			}
			spread := sa.Spread()
			if s := sb.Spread(); s > spread {
				spread = s
			}
			verdict := "ok"
			switch {
			case spread > e.Bound:
				verdict = "unresolved"
				unresolved++
			case worse > e.Bound:
				verdict = "BREACH"
				breaches++
			}
			fmt.Fprintf(w, "%-16s %-16s %12.4f %12.4f %8.4f %+7.2f%% %6.2f%% %5.0f%%  %s\n",
				wd.Name, e.Name, sa.Median, sb.Median, sb.Median/sa.Median, worse*100, spread*100, e.Bound*100, verdict)
		}
		if wb.Failed > wa.Failed {
			fmt.Fprintf(w, "%-16s failed operations rose from %d to %d  BREACH\n", wd.Name, wa.Failed, wb.Failed)
			breaches++
		}
		// Counts repeat exactly on one commit, so a difference is the
		// change's doing: reported, and left to the reader to judge.
		for _, l := range man.PerLayer {
			if va, vb := wa.PerLayer[l.Name].Value, wb.PerLayer[l.Name].Value; l.Unit == "count" && va != vb {
				fmt.Fprintf(w, "%-16s count %s changed: %v -> %v\n", wd.Name, l.Name, va, vb)
				countDiffs++
			}
		}
	}
	fmt.Fprintf(w, "\n%d breach(es), %d unresolved, %d count metric(s) changed\n", breaches, unresolved, countDiffs)
	switch {
	case breaches > 0:
		return ErrBreach
	case unresolved > 0:
		return ErrUnresolved
	}
	return nil
}
