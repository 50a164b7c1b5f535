#!/bin/sh
# ab.sh — compare a commit against the working tree:
#
#     sh scripts/ab.sh REV                        time every workload of BENCHMARK.json
#     sh scripts/ab.sh REV sim-par-mem func-run   time the named workloads
#     sh scripts/ab.sh REV BenchmarkTCUIssue      time a go benchmark of bench_test.go
#     sh scripts/ab.sh REV TestChaosSoak ...      diff the cases of matrix_test.go gates
#     sh scripts/ab.sh REV TestCompileToggles     diff the compiler's output (assembly, pre-pass
#                                                 source, diagnostics) program by program
#
# REV is any commit (HEAD~1 for a committed change, HEAD for an uncommitted
# one). Its files are exported into a temporary directory, removed on exit;
# the other side is the working tree as it stands. For timing, both sides
# must carry the same benchmark/ and BENCHMARK.json, or the pairs would not
# measure the same thing.
#
# Test names select gates of matrix_test.go, the case matrix of the
# determinism gates. The working tree's copy of that file replaces REV's,
# is compiled alone on each side (`go test -c ./matrix_test.go`; exit 2
# with the compile error when it does not build at REV), and the named
# gates run once per side under -v, each case logging a manifest line of
# artifact hashes. It prints "K of N cases differ" and, per differing case,
# the differing artifacts with the change in final cycle and in
# Sched.Executed. A gate that fails on one side (a golden REV predates, a
# pinned count a timing change moves) is reported, and its cases are
# diffed all the same.
#
# A workload gets ten pairs of `bash benchmark/run.sh --workload W --seed S
# --trace 0`, pair i at seed i, the REV side first in odd pairs and second
# in even ones. A Benchmark name gets ten pairs of `go test -c` binaries run
# at once with GOMAXPROCS=1, each pinned to its own CPU with taskset and the
# CPUs swapped every pair (one after the other on CPU 0 on a one-CPU host).
#
# For each workload or benchmark it prints a markdown table: per metric,
# each side's q1 / median / q3 over the ten runs, the change of the median,
# the spread, and in how many pairs the working tree was better. A
# workload's metrics are the end-to-end ones of BENCHMARK.json, with their
# direction and bound, plus the failed operations: a metric whose spread
# exceeds its bound is marked unresolved, one whose median worsens by more
# than the bound is marked beyond it. A benchmark's metrics are the ones it
# reports, a unit ending in /s or /sec counting higher-is-better. Host
# facts head the output. Nothing is written outside the temporary directory
# but each side's own .bench_build/ and benchmark/out/.
set -eu

pairs=10
if [ $# -lt 1 ]; then
    echo "usage: sh scripts/ab.sh REV [WORKLOAD | BenchmarkNAME | TestNAME ...]" >&2
    exit 2
fi
rev=$1
shift
cd "$(dirname "$0")/.."
new=$(pwd)

if ! sha=$(git rev-parse --verify --quiet "$rev^{commit}"); then
    echo "ab.sh: $rev is not a commit" >&2
    exit 2
fi

# manifest prints "workload NAME" and "metric NAME BETTER BOUND" lines from
# BENCHMARK.json (one key per line, top-level keys indented two spaces).
manifest() {
    awk '
        /^  "[a-z_]+":/ { sec = $1; gsub(/[":]/, "", sec) }
        { v = $2; gsub(/[",]/, "", v) }
        sec == "workloads" && $1 == "\"name\":" { print "workload", v }
        sec == "end_to_end" && $1 == "\"name\":" { name = v }
        sec == "end_to_end" && $1 == "\"better\":" { better = v }
        sec == "end_to_end" && $1 == "\"bound\":" { print "metric", name, better, v }
    ' BENCHMARK.json
}
workloads=$(manifest | awk '$1 == "workload" { print $2 }')
[ $# -gt 0 ] || set -- $workloads
tests=
timed=
for name in "$@"; do
    case $name in
    Test*) tests="$tests${tests:+|}$name" ;;
    Benchmark*) timed="$timed $name" ;;
    *)
        if ! printf '%s\n' $workloads | grep -qx "$name"; then
            echo "ab.sh: $name is neither a workload of BENCHMARK.json nor a Benchmark or Test name" >&2
            exit 2
        fi
        timed="$timed $name"
        ;;
    esac
done
if [ -n "$timed" ] && ! git diff --quiet "$sha" -- benchmark BENCHMARK.json; then
    echo "ab.sh: benchmark/ or BENCHMARK.json differ between $rev and the working tree; refusing" >&2
    exit 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
old=$tmp/old
mkdir "$old"
git archive "$sha" | tar -x -C "$old"
manifest | awk '$1 == "metric" { print $2, $3, $4 }' >"$tmp/directions"

ncpu=$(getconf _NPROCESSORS_ONLN)
echo "# ab.sh: $rev ($(git rev-parse --short "$sha")) vs the working tree"
echo
echo "host: $(awk -F': ' '/^model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null || uname -m)," \
    "nproc $ncpu, $(go version | cut -d' ' -f3-)"

# side DIR prints "old" or "new" for a checkout directory.
side() { if [ "$1" = "$old" ]; then echo old; else echo new; fi; }

# workload W PAIR DIR appends one run's "metric side pair value" lines.
workload() {
    out=$tmp/run.out
    if ! (cd "$3" && bash benchmark/run.sh --workload "$1" --seed "$2" --trace 0) >"$out" 2>&1; then
        cat "$out" >&2
        echo "ab.sh: $1 failed on the $(side "$3") side at seed $2" >&2
        exit 1
    fi
    tail -n 1 "$out" | awk -v side="$(side "$3")" -v pair="$2" '{
        for (s = $0; match(s, /"[a-z0-9_.]+":\{"value":[-+0-9.eE]+/); s = substr(s, RSTART + RLENGTH)) {
            split(substr(s, RSTART + 1, RLENGTH - 1), f, "\"")
            print f[1], side, pair, substr(f[4], 2)
        }
        for (s = $0; match(s, /"(attempted|failed)":[0-9]+/); s = substr(s, RSTART + RLENGTH)) {
            split(substr(s, RSTART + 1, RLENGTH - 1), f, "\"")
            print f[1], side, pair, substr(f[2], 2)
        }
    }' >>"$tmp/data"
}

# gobench NAME DIR CPU runs DIR's test binary on CPU into $tmp/SIDE.bench.
gobench() {
    (cd "$2" && GOMAXPROCS=1 taskset -c "$3" "$tmp/$(side "$2").test" \
        -test.run '^$' -test.bench "^$1\$" >"$tmp/$(side "$2").bench" 2>&1) || {
        cat "$tmp/$(side "$2").bench" >&2
        echo "ab.sh: $1 failed on the $(side "$2") side" >&2
        return 1
    }
}

# benchdata PAIR appends one "name:unit side pair value" line per metric
# the two sides reported.
benchdata() {
    for sd in old new; do
        awk -v side="$sd" -v pair="$1" '/^Benchmark/ && NF >= 4 {
            for (i = 3; i < NF; i += 2) print $1 ":" $(i + 1), side, pair, $i
        }' "$tmp/$sd.bench" >>"$tmp/data"
    done
}

# summary prints the table of $tmp/data.
summary() {
    awk -v oldname="$rev" -v pairs="$pairs" '
        # quart is the q-quantile of one side, by the exclusive method
        # (Python statistics.quantiles), as benchmark/full.go computes it.
        function quart(k, sd, q,    m, i, j, x, a, lo) {
            m = cnt[k, sd]
            for (i = 1; i <= m; i++) a[i] = val[k, sd, i]
            for (i = 2; i <= m; i++)
                for (j = i; j > 1 && a[j - 1] > a[j]; j--) { x = a[j]; a[j] = a[j - 1]; a[j - 1] = x }
            if (m < 2) return a[m]
            lo = int(q * (m + 1))
            lo = lo < 1 ? 1 : lo > m - 1 ? m - 1 : lo
            return a[lo] + (q * (m + 1) - lo) * (a[lo + 1] - a[lo])
        }
        function num(x) { return x >= 1000 || x <= -1000 ? sprintf("%.0f", x) : sprintf("%.4g", x) }
        # side3 is "—" for a side that does not report the metric (a
        # benchmark metric newer than REV).
        function side3(k, sd) {
            if (!cnt[k, sd]) return "—"
            return num(quart(k, sd, 0.25)) " / " num(quart(k, sd, 0.5)) " / " num(quart(k, sd, 0.75))
        }
        FILENAME == ARGV[1] { better[$1] = $2; bound[$1] = $3; seen[$1] = 1; order[++nk] = $1; next }
        $1 == "attempted" || $1 == "failed" { ops[$1, $2] += $4; next }
        {
            if (!($1 in seen)) { seen[$1] = 1; order[++nk] = $1 }
            val[$1, $2, ++cnt[$1, $2]] = $4
            at[$1, $2, $3] = $4
        }
        END {
            printf "| metric | better | %s q1 / median / q3 | working tree q1 / median / q3 | median change | spread | pairs won by the working tree |\n", oldname
            print "|---|---|---|---|---|---|---|"
            for (i = 1; i <= nk; i++) {
                k = order[i]
                if (cnt[k, "old"] + cnt[k, "new"] == 0) continue
                b = (k in better) ? better[k] : (k ~ /\/s(ec)?$/ ? "higher" : "lower")
                won = 0
                for (p = 1; p <= pairs; p++)
                    if ((k, "old", p) in at && (k, "new", p) in at &&
                        (b == "higher" ? at[k, "new", p] > at[k, "old", p] : at[k, "new", p] < at[k, "old", p]))
                        won++
                mo = quart(k, "old", 0.5); mn = quart(k, "new", 0.5)
                change = spread = "—"
                if (mo != 0 && cnt[k, "new"]) {
                    # The spread is the wider interquartile range of the two
                    # sides over the REV median: past the bound, the pairs
                    # cannot tell a change of that size from noise.
                    d = (mn - mo) / mo * 100
                    sp = quart(k, "old", 0.75) - quart(k, "old", 0.25)
                    x = quart(k, "new", 0.75) - quart(k, "new", 0.25)
                    sp = (sp > x ? sp : x) / (mo < 0 ? -mo : mo) * 100
                    change = sprintf("%+.1f %%", d)
                    spread = sprintf("%.1f %%", sp)
                    if (k in bound && sp > bound[k] * 100)
                        change = change " (unresolved)"
                    else if (k in bound && (b == "higher" ? -d : d) > bound[k] * 100)
                        change = change sprintf(" (beyond the %g %% bound)", bound[k] * 100)
                }
                printf "| %s | %s | %s | %s | %s | %s | %d of %d |\n", k, b, side3(k, "old"), side3(k, "new"), change, spread, won, pairs
            }
            if (("attempted", "old") in ops)
                printf "| fail_share | lower | %d of %d ops | %d of %d ops | | | |\n",
                    ops["failed", "old"], ops["attempted", "old"], ops["failed", "new"], ops["attempted", "new"]
        }
    ' "$tmp/directions" "$tmp/data"
}

# matrix DIR builds DIR's matrix_test.go alone, runs the named gates and
# keeps their manifest lines, "ID cycles=C sched.executed=E time=T
# ARTIFACT=SHA ...", in $tmp/SIDE.manifest.
matrix() {
    sd=$(side "$1")
    if ! (cd "$1" && go test -c -o "$tmp/$sd.matrix" ./matrix_test.go) >"$tmp/$sd.build" 2>&1; then
        cat "$tmp/$sd.build" >&2
        echo "ab.sh: matrix_test.go does not build on the $sd side" >&2
        exit 2
    fi
    if ! (cd "$1" && "$tmp/$sd.matrix" -test.run "^($tests)\$" -test.count=1 -test.v) >"$tmp/$sd.out" 2>&1; then
        echo "note: gates failed on the $sd side:"
        grep -E '^\s*--- FAIL' "$tmp/$sd.out" || tail -n 5 "$tmp/$sd.out"
    fi
    sed -n 's/^.*: manifest //p' "$tmp/$sd.out" >"$tmp/$sd.manifest"
}

if [ -n "$tests" ]; then
    cp matrix_test.go "$old/"
    echo
    echo "## $tests: the case matrix, $rev vs the working tree"
    matrix "$old"
    matrix "$new"
    awk -v oldname="$rev" '
        function fields(line, f,    n, i, kv) {
            delete f
            n = split(line, kv, " ")
            for (i = 2; i <= n; i++) { split(kv[i], x, "="); f[x[1]] = x[2]; key[i] = x[1] }
            return n
        }
        FILENAME == ARGV[1] { old[$1] = $0; next }
        { new[$1] = $0; order[++n] = $1 }
        END {
            for (id in old) if (!(id in new)) order[++n] = id
            for (i = 1; i <= n; i++) {
                id = order[i]
                if (old[id] == new[id]) continue
                k++
                if (!(id in old)) { out = out sprintf("%s: only in the working tree\n", id); continue }
                if (!(id in new)) { out = out sprintf("%s: only at %s\n", id, oldname); continue }
                fields(old[id], o)
                m = fields(new[id], w)
                arts = ""
                for (j = 5; j <= m; j++) if (o[key[j]] != w[key[j]]) arts = arts " " key[j]
                out = out sprintf("%s:%s; Δcycles %+.0f, ΔSched.Executed %+.0f\n",
                    id, arts, w["cycles"] - o["cycles"], w["sched.executed"] - o["sched.executed"])
            }
            printf "%d of %d cases differ\n%s", k, n, out
        }
    ' "$tmp/old.manifest" "$tmp/new.manifest"
fi

for name in $timed; do
    : >"$tmp/data"
    echo
    p=1
    case $name in
    Benchmark*)
        (cd "$old" && go test -c -o "$tmp/old.test" .)
        (cd "$new" && go test -c -o "$tmp/new.test" .)
        echo "## $name: $pairs pairs, GOMAXPROCS=1, one pinned binary per CPU at once"
        while [ $p -le $pairs ]; do
            if [ "$ncpu" -lt 2 ]; then
                gobench "$name" "$old" 0
                gobench "$name" "$new" 0
            else
                gobench "$name" "$old" $((p % 2)) &
                a=$!
                gobench "$name" "$new" $((1 - p % 2)) &
                b=$!
                wait $a || { wait $b; exit 1; }
                wait $b
            fi
            benchdata $p
            p=$((p + 1))
        done
        ;;
    *)
        echo "## $name: $pairs pairs, seeds 1–$pairs, $(awk -F'[:,]' '/"run_seconds"/ { print $2 + 0 }' BENCHMARK.json) s runs"
        while [ $p -le $pairs ]; do
            if [ $((p % 2)) -eq 1 ]; then
                workload "$name" $p "$old"
                workload "$name" $p "$new"
            else
                workload "$name" $p "$new"
                workload "$name" $p "$old"
            fi
            p=$((p + 1))
        done
        ;;
    esac
    echo
    summary
done
