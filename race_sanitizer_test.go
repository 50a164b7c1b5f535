// Two-sided race checking (docs/ANALYZER.md): xmtsan — the deterministic
// dynamic happens-before sanitizer inside the cycle-accurate simulator —
// is differentially validated against the static spawn-race check:
//
//   - the paper's Fig. 6 litmus program is flagged by BOTH sides, on the
//     same write/read line pairs;
//   - the Fig. 7 (prefix-sum synchronized) program is clean on BOTH sides;
//   - every synchronized program in the conformance corpus is race-clean
//     on both sides, and the one racy-by-design workload
//     (connectivity-par) is flagged by both, with static findings
//     classified confirmed/unconfirmed against the dynamic reports;
//   - the xmtsan report for a fixed racy fixture is byte-identical across
//     host worker counts and matches a checked-in golden.
//
// TestXmtsanCheckpointResume (matrix_test.go) holds a run chopped at
// checkpoints to the full-run report.
package xmtgo_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xmtgo"
	"xmtgo/internal/analysis"
	"xmtgo/internal/diag"
	"xmtgo/internal/sim/race"
	"xmtgo/internal/workloads"
)

// runXmtsan compiles src and runs it cycle-accurately with the race
// sanitizer enabled, returning the finished simulator (whose RaceDetector
// holds the reports).
func runXmtsan(t *testing.T, name, src string, workers int, memmaps ...string) *xmtgo.Simulator {
	t.Helper()
	prog, _, err := xmtgo.Build(name, src, xmtgo.DefaultCompileOptions(), memmaps...)
	if err != nil {
		t.Fatal(err)
	}
	cfg := xmtgo.ConfigFPGA64()
	cfg.HostWorkers = workers
	cfg.RaceCheck = true
	var out bytes.Buffer
	sys, err := xmtgo.NewSimulator(prog, cfg, &out)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Fatalf("%s did not halt (cycles=%d)", name, res.Cycles)
	}
	return sys
}

// spawnRaceFindings runs only the static spawn-race pass over src.
func spawnRaceFindings(name, src string) []diag.Diagnostic {
	var out []diag.Diagnostic
	for _, d := range analysis.Analyze(name, src, map[string]bool{"spawn-race": true}) {
		if d.Check == "spawn-race" {
			out = append(out, d)
		}
	}
	return out
}

// linePair identifies one conflicting access pair by its two source lines,
// orientation-free: a static spawn-race finding anchors at whichever
// access came second in traversal order (with the other as its related
// position), while a dynamic report is anchored at the write, so the join
// key must not care which side is which.
type linePair struct{ lo, hi int }

func pairOf(a, b int) linePair {
	if a > b {
		a, b = b, a
	}
	return linePair{lo: a, hi: b}
}

func staticPairs(t *testing.T, ds []diag.Diagnostic) map[linePair]bool {
	t.Helper()
	out := make(map[linePair]bool)
	for _, d := range ds {
		if len(d.Related) == 0 {
			t.Fatalf("spawn-race finding without a related position: %s", d)
		}
		out[pairOf(d.Pos.Line, d.Related[0].Pos.Line)] = true
	}
	return out
}

func dynamicPairs(reps []race.Report) map[linePair]bool {
	out := make(map[linePair]bool)
	for _, r := range reps {
		out[pairOf(r.WriteLine, r.OtherLine)] = true
	}
	return out
}

// TestXmtsanLitmusDifferential closes the loop on the paper's Figs. 6/7:
// the static analyzer and the dynamic sanitizer must agree exactly on the
// two litmus programs, pair by pair.
func TestXmtsanLitmusDifferential(t *testing.T) {
	t.Run("fig6-flagged-by-both", func(t *testing.T) {
		src := workloads.LitmusRelaxedXMTC()
		static := spawnRaceFindings("fig6.c", src)
		if len(static) == 0 {
			t.Fatal("static spawn-race missed the Fig. 6 litmus program")
		}
		sys := runXmtsan(t, "fig6.c", src, 1)
		det := sys.RaceDetector()
		reps := det.Reports()
		if len(reps) == 0 {
			t.Fatal("xmtsan missed the Fig. 6 litmus program")
		}
		stat := staticPairs(t, static)
		dyn := dynamicPairs(reps)
		for _, d := range static {
			p := pairOf(d.Pos.Line, d.Related[0].Pos.Line)
			if !dyn[p] {
				t.Errorf("static finding not confirmed by xmtsan (lines %d/%d): %s", p.lo, p.hi, d)
			}
		}
		for _, r := range reps {
			p := pairOf(r.WriteLine, r.OtherLine)
			if !stat[p] {
				t.Errorf("xmtsan report with no static counterpart: %s", r.String())
			}
		}
		// The counters mirror the detector, and the xmtlint-compatible
		// rendering attributes every report to the source file.
		if sys.Stats.RaceChecks != det.Checks() || sys.Stats.RaceReports != uint64(len(reps)) {
			t.Errorf("counters (checks=%d reports=%d) disagree with the detector (checks=%d reports=%d)",
				sys.Stats.RaceChecks, sys.Stats.RaceReports, det.Checks(), len(reps))
		}
		for _, d := range det.Diagnostics("fig6.c") {
			if d.Check != "xmtsan" || d.Pos.File != "fig6.c" {
				t.Errorf("malformed xmtsan diagnostic: %s", d)
			}
		}
	})
	t.Run("fig7-clean-on-both", func(t *testing.T) {
		src := workloads.LitmusPSMXMTC()
		if ds := spawnRaceFindings("fig7.c", src); len(ds) != 0 {
			t.Errorf("static spawn-race flagged the synchronized Fig. 7 program: %v", ds)
		}
		det := runXmtsan(t, "fig7.c", src, 1).RaceDetector()
		if reps := det.Reports(); len(reps) != 0 {
			t.Errorf("xmtsan flagged the synchronized Fig. 7 program: %v", reps)
		}
		if det.Checks() == 0 {
			t.Error("xmtsan performed no checks on Fig. 7; the hooks are not firing")
		}
	})
}

// TestXmtsanDifferentialGate runs the whole conformance corpus through both
// sides. Synchronized workloads must be race-clean dynamically AND carry no
// static spawn-race finding. The one deliberately racy workload —
// connectivity-par, whose label-propagation rounds tolerate intra-round
// races by design — is the positive control: BOTH sides must flag it,
// with at least one static finding dynamically confirmed on the same
// write/access line pair. The two sides deliberately miss in opposite
// directions — the static check suppresses prefix-sum-ordered pairs
// across sibling branches (a documented over-approximation) while the
// dynamic side only sees pairs the executed schedule exposed — so the
// unmatched remainder on this workload is logged, not failed.
func TestXmtsanDifferentialGate(t *testing.T) {
	racyByDesign := map[string]bool{"connectivity-par": true}
	for _, tc := range conformanceCorpus() {
		t.Run(tc.name, func(t *testing.T) {
			det := runXmtsan(t, tc.name+".c", tc.src, 1, tc.memmaps...).RaceDetector()
			static := spawnRaceFindings(tc.name+".c", tc.src)
			// Parallel variants must actually exercise the shadow checks;
			// a zero count would mean the hooks silently stopped firing.
			if strings.Contains(tc.name, "-par") && det.Checks() == 0 {
				t.Error("no xmtsan checks performed on a parallel workload")
			}
			if !racyByDesign[tc.name] {
				if reps := det.Reports(); len(reps) != 0 {
					var b strings.Builder
					_ = det.WriteReport(&b)
					t.Errorf("xmtsan flagged a synchronized workload:\n%s", b.String())
				}
				for _, d := range static {
					t.Errorf("static spawn-race finding on a synchronized workload: %s", d)
				}
				return
			}
			reps := det.Reports()
			if len(reps) == 0 {
				t.Fatal("xmtsan observed no races on the racy-by-design workload")
			}
			if len(static) == 0 {
				t.Fatal("static spawn-race missed the racy-by-design workload")
			}
			stat := staticPairs(t, static)
			for _, r := range reps {
				p := pairOf(r.WriteLine, r.OtherLine)
				if !stat[p] {
					t.Logf("xmtsan-only pair (static suppressed it as prefix-sum ordered): %s", r.String())
				}
			}
			dyn := dynamicPairs(reps)
			confirmed := 0
			for _, d := range static {
				if dyn[pairOf(d.Pos.Line, d.Related[0].Pos.Line)] {
					confirmed++
				} else {
					t.Logf("static finding not exposed by this schedule (unconfirmed): %s", d)
				}
			}
			if confirmed == 0 {
				t.Error("no static spawn-race finding was dynamically confirmed")
			}
			t.Logf("%s: %d/%d static findings dynamically confirmed (%d xmtsan reports)",
				tc.name, confirmed, len(static), len(reps))
		})
	}
}

// TestXmtsanGolden runs testdata/observability/race_fixture.c — one racy
// epoch (Fig. 6 pattern) followed by one prefix-sum-synchronized epoch
// (Fig. 7 pattern) — at host_workers 1 and 4 and compares the xmtsan
// report byte-for-byte against the checked-in golden. Re-bless deliberate
// format changes with
//
//	go test -run TestXmtsanGolden -update .
func TestXmtsanGolden(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "observability", "race_fixture.c"))
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "observability", "race_report.golden")
	for _, workers := range []int{1, 4} {
		sys := runXmtsan(t, "race_fixture.c", string(src), workers)
		var rep bytes.Buffer
		if err := sys.RaceDetector().WriteReport(&rep); err != nil {
			t.Fatal(err)
		}
		if *update && workers == 1 {
			if err := os.WriteFile(golden, rep.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing golden file (run with -update): %v", err)
		}
		if !bytes.Equal(rep.Bytes(), want) {
			t.Errorf("workers=%d: xmtsan report diverged from golden:\n%s\nwant:\n%s",
				workers, rep.String(), want)
		}
		if len(sys.RaceDetector().Reports()) == 0 {
			t.Error("race fixture produced no reports; the fixture no longer races")
		}
	}
}
