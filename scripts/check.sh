#!/bin/sh
# check.sh — the repository's build gate. Run from the repo root:
#
#     sh scripts/check.sh
#
# It verifies formatting, vets, builds, tests, and then dogfoods the
# static analyzer over the XMTC fixtures in examples/xmtc: the clean
# programs must produce no findings, the Fig. 6 litmus must fail the
# lint, and the Fig. 7 litmus must stay clean through the full compile
# pipeline.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

# staticcheck is optional: run it when the host has it, skip quietly when
# not (the gate must not install anything).
if command -v staticcheck >/dev/null 2>&1; then
    echo "== staticcheck ($(staticcheck -version 2>/dev/null || echo unknown))"
    staticcheck ./...
else
    echo "== staticcheck (not installed; skipping)"
fi

echo "== go build"
go build ./...
# The gates below run xmtrun and xmtlint several times between them: link
# each once, into a directory of this run's own.
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
trap 'exit 130' INT TERM
go build -o "$bin/" ./cmd/xmtrun ./cmd/xmtlint

echo "== go test"
go test ./...

echo "== go test (benchmark/: the nested xmtbench module)"
# benchmark/ is a module of its own (xmtgo/benchmark, replace ../) that
# calls into internal/sim, internal/asm and friends from outside, so tier-1
# `go test ./...` never builds it: a signature change there can break it
# with everything above green. Manifest guard + a smoke run of every
# workload.
(cd benchmark && go test ./...)

echo "== conformance (three-way: interp vs funcvm vs cycle, the VM's superinstructions) + observability goldens and telemetry + compile toggles"
go test -count=1 -run 'TestFuncCycleConformance|TestFuncVMCheckpointResume|TestObservabilityGolden|TestTelemetryDeterminism|TestTelemetryCheckpointResume|TestCompileToggles' .
# The VM's fused words against the interpreter (each idiom, its near misses,
# faults, jumps into a fused word, a budget ending at every offset) and the
# share of the Table I memory kernels they cover.
go test -count=1 -run 'TestFusedWords|TestVMBudgetParity|TestFusedCoverage' ./internal/sim/funcvm
# The interval sampler and the power model difference counter snapshots:
# every sample field must sum back to the end-of-run snapshot.
go test -count=1 ./internal/sim/metrics ./internal/sim/power

echo "== go test -race (simulator core + host-parallel determinism + unobserved issue path + mid-window stop)"
go test -race ./internal/sim/engine ./internal/sim/cycle ./internal/sim/funcmodel
# TestStopMidWindow runs two workers: helper goroutines count issues in
# their clusters' rows, and the serial commit takes them back past a stop.
go test -race -run 'TestHostParallelDeterminism|TestObserverDoesNotPerturb|TestStopMidWindow' .

echo "== go test -race (job execution: runner, xmtbatch, xmtd, daemon stop/recovery paths)"
# The runner's hooks are where other goroutines reach into a running job:
# the daemon's preempt, cancel, drain and crash paths request a checkpoint on
# a simulator a worker is ticking; xmtbatch's interrupt path is that Drain,
# and xmtd starts it on a goroutine of its own from sigctl's callback.
# The rest of the daemon suite adds time, not shared state.
go test -race ./internal/jobrun ./cmd/xmtbatch ./cmd/xmtd
# A data directory whose <id>.ckpt is in the former envelope format restarts
# that job from cycle 0 (with a warning) instead of resuming it. A finished
# job's checkpoint is unlinked on the worker while clients wait on it, a
# startup sweep removes those a crash left, and two jobs back to back share
# pooled memory. The lifecycle test reads the structured log while the
# worker that finished the job may still be writing to it.
go test -race -timeout 300s -run 'TestDaemonPreemptResumeBitIdentical|TestDaemonCancelPaths|TestDaemonDrainAndResume|TestDaemonCrashRecovery|TestDaemonOldEnvelopeRestarts|TestDaemonLifecycleObservability|TestDaemonRemovesFinishedCheckpoints|TestDaemonSweepsCheckpointsAtStartup|TestDaemonPooledMemoryDoesNotLeak' ./internal/daemon

echo "== lookahead gate (window determinism matrix + rollback sanity + worker contract under -race)"
# The bounded-lookahead engine must be architecturally invisible: byte-
# identical artifacts across host_workers {1,2,4} x lookahead {1, 3,
# derived} x {windowed, optimistic}, checkpoint/resume mid-window, and the
# optimistic run must actually exercise the rollback path (nonzero
# System.Rollbacks) while matching the lockstep result; a TCU that stops
# the run mid-window leaves the pinned counts in every variant.
go test -count=1 -run 'TestLookaheadDeterminism|TestLookaheadCheckpointResume|TestOptimisticRollbackOccurs|TestStopMidWindow' .
# What explicit workers promise: no shard runs ahead of the lockstep, commits
# come in (cycle, shard) order, and a panicking shard comes out of the run
# instead of hanging it.
go test -race -count=10 -timeout 120s -run 'TestWindowCommitOrder|TestLockstepPanicPropagates' ./internal/sim/engine

echo "== chaos soak (seeded fault-injection matrix, docs/ROBUSTNESS.md)"
# 3 workloads x 3 seeds x host_workers {1,4} under a mixed fault plan, run
# under -race with a hard timeout: results must be byte-identical per
# (workload, seed) across worker counts even while faults corrupt state.
go test -race -count=1 -timeout 300s -run 'TestChaosSoak|TestDegradedConformance' .

echo "== fuzz smoke (parser + pre-pass + assembler + memory map + config + config run + analyzer + backend differential + scheduler order + stall sleep + checkpoint round trip + digest)"
go test -fuzz FuzzParseXMTC -fuzztime 5s -run '^$' ./internal/xmtc
go test -fuzz FuzzAssemble -fuzztime 5s -run '^$' ./internal/asm
# The in-place memory-map scanner against strings.Fields + strconv.
go test -fuzz FuzzMemMap -fuzztime 5s -run '^$' ./internal/asm
go test -fuzz FuzzConfig -fuzztime 5s -run '^$' ./internal/config
# Any config Validate accepts must build and run a short program without
# panicking (a negative cache latency once scheduled into the past).
go test -fuzz FuzzConfigRun -fuzztime 5s -run '^$' ./internal/sim/cycle
go test -fuzz FuzzAnalyze -fuzztime 5s -run '^$' ./internal/analysis
go test -fuzz FuzzBackendDifferential -fuzztime 5s -run '^$' .
go test -fuzz FuzzSchedulerOrder -fuzztime 5s -run '^$' ./internal/sim/engine
# A clamped SleepUntil against a per-edge poller: same non-poll firings,
# same Now(), Executed lower by exactly the skipped polls.
go test -fuzz FuzzSleepUntil -fuzztime 5s -run '^$' ./internal/sim/engine
# Sparse checkpoints: Capture/Save/Load/Restore reproduce memory exactly, and
# Digest is hash/fnv over the dense image.
go test -fuzz FuzzCheckpointRoundTrip -fuzztime 5s -run '^$' ./internal/sim/checkpoint
go test -fuzz FuzzDigest -fuzztime 5s -run '^$' ./internal/sim/checkpoint

echo "== CLI checkpoint/resume (a resumed run reports the program's totals)"
# xmtrun -checkpoint then -resume, in both modes and across them: the
# resumed run prints the rest of the output, ends in the memory of a run
# never checkpointed, and reports the uninterrupted instruction total.
go test -count=1 -run 'TestCLIRunCheckpointResume|TestCLIResumeReportsProgramTotals' .

echo "== telemetry endpoint smoke (xmtsim -serve)"
# Start xmtsim with a live metrics server mid-run, scrape /metrics and
# /status, and assert the advertised metric families.
go test -count=1 -run TestCLIServeEndpoints .

echo "== xmtd gate (daemon: submit, preempt, kill -9, journal replay, drain; xmtbatch restart)"
# A real xmtd process over a unix socket: a high-priority job preempts a
# running one at a checkpoint boundary, kill -9 lands mid-job, a restart on
# the same data directory replays the journal and finishes the job with the
# right output, and a drain exits 0 leaving the clean-shutdown marker. A
# real xmtbatch stopped by SIGINT after its first checkpoint resumes on
# re-run with an uninterrupted run's totals, and a third run reports the
# job from the journal.
go test -count=1 -timeout 300s -run 'TestCLIDaemonCrashRecovery|TestCLIBatchResumeAfterInterrupt' .

echo "== xmtd observability gate (lifecycle trace, latency histograms, structured logs, pprof)"
# A real xmtd with -serve/-pprof/-trace: a submit → preempt → resume → done
# lifecycle must show up as spans in xmtctl trace (Perfetto-loadable), the
# seven xmt_daemon_*_ns histogram families and xmt_trace_dropped_total must
# be on /metrics, daemon logs must be structured JSON with job/tenant
# fields (xmtctl logs and /logs agree), and /debug/pprof/ must answer.
go test -count=1 -timeout 300s -run TestCLIDaemonObservability .

echo "== coverage gate"
# Total statement coverage must not drop below the recorded baseline
# (78.0% at the PR-2 seed, 78.1% at PR-5, 78.9% at PR-8, 79.0% at PR-9 —
# the daemon, its CLIs and sigctl ship with in-process coverage; measured
# 79.3% then, 79.5% at PR-10 with internal/obs and the daemon threading,
# baselined with slack for timing-dependent daemon branches; 83.6% once
# the cluster tick's issue-side sets went multi-word, baselined at 83.5%).
# Raise the baseline when coverage improves; never lower it to make a
# change pass.
baseline=83.5
profile=$(mktemp)
go test -count=1 -coverprofile="$profile" -coverpkg=./... ./... >/dev/null
total=$(go tool cover -func="$profile" | tail -1 | sed 's/.*[[:space:]]\([0-9.]*\)%/\1/')
rm -f "$profile"
echo "total coverage: ${total}% (baseline ${baseline}%)"
if [ "$(printf '%s\n' "$baseline" "$total" | sort -g | head -1)" != "$baseline" ]; then
    echo "ERROR: total coverage ${total}% fell below the ${baseline}% baseline" >&2
    exit 1
fi

echo "== xmtlint (dogfood over examples/xmtc)"
XMTLINT=$bin/xmtlint

# Clean fixtures: zero findings, through the full pipeline where possible.
$XMTLINT -compile \
    examples/xmtc/compact.c \
    examples/xmtc/histogram.c \
    examples/xmtc/litmus_psm.c \
    examples/xmtc/suppress.c

# The Fig. 6 relaxed litmus, the misuse catalog and the dataflow-check
# catalog MUST fail the lint.
for bad in examples/xmtc/litmus_relaxed.c examples/xmtc/misuse.c \
    examples/xmtc/sync_safety.c; do
    if $XMTLINT "$bad" >/dev/null 2>&1; then
        echo "ERROR: xmtlint reported $bad clean; it must be flagged" >&2
        exit 1
    fi
done

echo "== xmtsan (two-sided race gate: static differential + dynamic litmus)"
# The differential tests cross-check xmtlint's spawn-race findings against
# the dynamic sanitizer over the litmus pair and the conformance corpus,
# and pin the report's determinism (workers, checkpoint/resume).
go test -count=1 -run 'TestXmtsan' .
# CLI smoke: the Fig. 6 litmus must race under xmtsan, the Fig. 7 litmus
# must not (report goes to stderr; the exit status stays 0 either way).
racelog=$(mktemp)
"$bin/xmtrun" -config fpga64 -race-check \
    examples/xmtc/litmus_relaxed.c >/dev/null 2>"$racelog"
if ! grep -q '^race:' "$racelog"; then
    echo "ERROR: xmtsan reported the Fig. 6 litmus race-free" >&2
    cat "$racelog" >&2
    exit 1
fi
"$bin/xmtrun" -config fpga64 -race-check \
    examples/xmtc/litmus_psm.c >/dev/null 2>"$racelog"
if ! grep -q '^xmtsan: 0 race(s)' "$racelog"; then
    echo "ERROR: xmtsan flagged the synchronized Fig. 7 litmus" >&2
    cat "$racelog" >&2
    exit 1
fi
rm -f "$racelog"

echo "All checks passed."
