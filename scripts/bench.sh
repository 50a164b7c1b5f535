#!/bin/sh
# bench.sh — record the perf trajectory. Run from the repo root:
#
#     sh scripts/bench.sh
#
# Runs the Table I throughput benchmarks, the cluster-compute anchor
# (BenchmarkTCUIssue: host ns per simulated instruction on one worker,
# docs/PERF.md §Lowered issue stream), the event-list anchor
# (BenchmarkSchedulerEdge: host ns per scheduler event, with and without
# other events to wait behind, docs/PERF.md §The event list), the
# host-parallel scaling benchmark, the lookahead comparison (single-cycle vs derived window vs
# optimistic, docs/PERF.md §Lookahead) and the functional-backend
# comparison (interpreter vs funcvm bytecode VM, docs/SIMULATOR.md
# §Functional backends) with -benchmem, writes the parsed results to
# BENCH_<date>.json,
# appends the record to the cross-run BENCH_HISTORY.jsonl, appends a
# one-line summary to EXPERIMENTS.md so successive PRs can compare
# simulated-cycles/sec on the same workloads, and diffs the last two
# history entries with xmtperf (generous 30% threshold: the recorded
# history spans different hosts and load conditions, so only gross
# regressions should fail the run).
set -eu

cd "$(dirname "$0")/.."

date=$(date +%Y-%m-%d)
out="BENCH_${date}.json"
history="BENCH_HISTORY.jsonl"
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

echo "== go test -bench (Table I + TCU issue + scheduler edge + host-parallel scaling + lookahead + functional backends)"
go test -run '^$' -bench 'BenchmarkTableI_|BenchmarkTCUIssue|BenchmarkSchedulerEdge|BenchmarkHostParallelScaling|BenchmarkLookahead|BenchmarkFuncBackend' \
    -benchmem . | tee "$raw"

go run ./cmd/benchjson -date "$date" -o "$out" -history "$history" <"$raw"
echo "wrote $out and appended to $history"

go run ./cmd/benchjson -date "$date" -summary <"$raw" >>EXPERIMENTS.md
echo "appended summary to EXPERIMENTS.md"

# Cross-run regression gate: compare the two most recent history entries.
# ns/op is the inverse of sim_cycle/sec but measures wall time, the
# noisiest signal on a shared host, so it (like the allocation metrics and
# host_ns/sim_instr and host_ns/event, which are wall time too and gated
# lower-is-better) gets a wider band than the throughput gate.
if [ "$(wc -l <"$history")" -ge 2 ]; then
    echo "== xmtperf (last two $history entries, 30% threshold)"
    go run ./cmd/xmtperf -threshold 30 -t ns/op=60 -t host_ns/sim_instr=60 -t host_ns/event=60 -t allocs/op=60 -t B/op=60 "$history"
fi
