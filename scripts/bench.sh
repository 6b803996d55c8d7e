#!/usr/bin/env bash
# bench.sh — run the benchmark suite and gate against the committed
# baseline.
#
# The suite's numbers land in results/BENCH_4.json (ns/op, B/op,
# allocs/op, and the custom R metrics the figure benchmarks report). When
# the baseline exists the fresh run is compared against it and the script
# fails if any benchmark's ns/op regressed beyond the tolerance; B/op,
# allocs/op and R values are recorded but never gate. Suspected
# regressions are re-run in isolation before the script fails, so a
# benchmark that only reads slow inside the full-suite run (ambient load,
# vCPU throttling) does not produce a false alarm.
#
# End-to-end throughput is `bash bench/run.sh`'s business (real daemon,
# workloads mem-rotate and json-rotate, bounds of its own).
#
#   scripts/bench.sh                  # compare against the baseline
#   BENCH_UPDATE=1 scripts/bench.sh   # rewrite the baseline
#
# Knobs: BENCH_TIME (go test -benchtime, default 100ms), BENCH_COUNT
# (repetitions per benchmark — rdtbench keeps the fastest, default 5;
# several repeats matter on throttled/shared hosts, where a run right
# after a CPU-heavy benchmark can read 50%+ slow until the vCPU's burst
# credit recovers), BENCH_TOLERANCE (fractional ns/op growth allowed,
# default 0.15), BENCH_OUT (baseline path).
set -euo pipefail
cd "$(dirname "$0")/.."

out="${BENCH_OUT:-results/BENCH_4.json}"
time="${BENCH_TIME:-100ms}"
count="${BENCH_COUNT:-5}"
tolerance="${BENCH_TOLERANCE:-0.15}"

tmp="$(mktemp)"
cmp="$(mktemp)"
trap 'rm -f "$tmp" "$cmp"' EXIT

go test -bench . -benchmem -benchtime "$time" -count "$count" -run '^$' . | tee "$tmp"

if [ -f "$out" ] && [ "${BENCH_UPDATE:-0}" != "1" ]; then
    if go run ./cmd/rdtbench -baseline "$out" -tolerance "$tolerance" < "$tmp" | tee "$cmp"; then
        exit 0
    fi
    # On a loaded or throttled host a full-suite run can make individual
    # benchmarks read 20-50% slow. A real regression reproduces when the
    # benchmark runs alone, so confirm the suspects in isolation before
    # failing; their siblings from the baseline show as "gone" in the
    # second comparison, which never gates.
    suspects="$(awk '$1=="REGRESSED" {split($2,a,"/"); print a[1]}' "$cmp" | sort -u | paste -sd'|' -)"
    [ -n "$suspects" ] || exit 1
    echo "gate tripped; re-running in isolation: $suspects"
    go test -bench "^($suspects)\$" -benchmem -benchtime "$time" -count "$count" -run '^$' . | tee "$tmp"
    go run ./cmd/rdtbench -baseline "$out" -tolerance "$tolerance" < "$tmp"
else
    mkdir -p "$(dirname "$out")"
    go run ./cmd/rdtbench -out "$out" -note "benchtime=$time" < "$tmp"
fi
