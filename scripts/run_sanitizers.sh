#!/usr/bin/env bash
# run_sanitizers.sh — build and run the concurrency + property suites
# under the sanitizer presets:
#
#   thread    TSan: the parallel flow / pool / cache code
#   address   ASan+UBSan (-fsanitize=address,undefined): lifetime and UB
#
# Each preset gets its own build tree (build-<preset>) and runs
#   ctest -L "testkit|exec|rsm|svc|harvester"
# The svc label includes the service soak (svc_soak_test), so the TSan
# pass exercises hundreds of concurrent submissions through the server's
# reader threads, runner tasks and shared caches. The exec label carries
# the SoA batch-kernel suites (sim_batch_test, dse_batch_test) and the
# flow determinism suite, whose flows run design points through the
# single-flight cache and two optimisers on one surrogate as concurrent
# pool tasks, also from a worker of the pool they are lent. The
# harvester label runs the backend-registry and electrostatic device
# suites and the electromagnetic envelope kernel's suites (against the
# libm solve and the warm-start property), so both device classes'
# physics hooks get the lifetime/UB pass as well.
# Usage:
#   scripts/run_sanitizers.sh              # both presets
#   EHDSE_SANITIZE=address scripts/run_sanitizers.sh   # one preset
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

presets="${EHDSE_SANITIZE:-thread address}"
labels='testkit|exec|rsm|svc|harvester'
status=0

for preset in $presets; do
    tree="build-$preset"
    echo "== sanitizer pass: $preset (tree: $tree) =="
    cmake -B "$tree" -S . -DEHDSE_SANITIZE="$preset" \
          -DEHDSE_BUILD_BENCH=OFF -DEHDSE_BUILD_EXAMPLES=OFF
    cmake --build "$tree" -j
    if ! ctest --test-dir "$tree" -L "$labels" --output-on-failure -j; then
        echo "run_sanitizers: $preset pass FAILED" >&2
        status=1
    fi
done

exit $status
