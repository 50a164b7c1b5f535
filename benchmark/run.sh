#!/usr/bin/env bash
# run.sh — build xmtbench from source and run it from the checkout root.
#
#   bash benchmark/run.sh                       every workload, each in its own process
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   bash benchmark/run.sh -smoke | -compare a.json b.json
#
# Everything the build writes (binary, Go build cache) stays in .bench_build/
# inside the checkout; the benchmark itself writes only under benchmark/out/.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

build="$root/.bench_build"
mkdir -p "$build/tmp"

# Keep the Go tool's cache, temp files and per-user state inside the checkout
# and make the build depend on nothing but the files in it.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd benchmark && go build -o "$build/xmtbench" ./cmd/xmtbench)
exec "$build/xmtbench" "$@"
