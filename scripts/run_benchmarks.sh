#!/usr/bin/env bash
# run_benchmarks.sh — produce the committed perf trajectory: build the
# bench harnesses in the default build type (RelWithDebInfo, portable
# ISA: the build the perf-labelled ctests run in, so a baseline and a
# gate run compare like with like), run the JSON-emitting ones, and
# collect their BENCH_*.json files at the repo root (where EXPERIMENTS.md
# points and scripts/check_perf.sh reads its baselines). After a
# deliberate perf change, run this and commit the refreshed BENCH_*.json
# files; the one-line deltas printed at the end show what moved, and
# each file's "host" line records where it was measured.
#
# Usage:
#   scripts/run_benchmarks.sh             # build + run + collect + delta
#   EHDSE_BENCH_BUILD_DIR=build-foo ...   # override the build tree
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

build="${EHDSE_BENCH_BUILD_DIR:-build-bench}"
# An empty CMAKE_BUILD_TYPE selects the top-level default, also in a tree
# configured with another type before.
cmake -B "$build" -S . -DCMAKE_BUILD_TYPE= -DEHDSE_NATIVE_ARCH=OFF \
    -DEHDSE_BUILD_TESTS=OFF -DEHDSE_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "$build" -j --target bench_exec_throughput \
    bench_harvester_backends

# Each bench writes BENCH_<name>.json into $EHDSE_BENCH_OUT.
out="$build/bench_out"
mkdir -p "$out"
for bench in bench_exec_throughput bench_harvester_backends; do
    echo "=== $bench ==="
    EHDSE_BENCH_OUT="$out" "$build/bench/$bench"
    echo
done

# One-line delta per metric against the committed baselines, then install
# the fresh files at the repo root.
for fresh in "$out"/BENCH_*.json; do
    name="$(basename "$fresh")"
    if [ -f "$root/$name" ]; then
        echo "--- $name vs committed baseline ---"
        EHDSE_SKIP_PERF_GATE= scripts/check_perf.sh "$fresh" "$root/$name" || true
    else
        echo "--- $name: no committed baseline yet ---"
    fi
    cp "$fresh" "$root/$name"
    echo "updated $root/$name"
done
