#!/usr/bin/env bash
# perf_gate_rules.sh — the perf gate's rules without timing: runs
# scripts/check_perf.sh on the fixtures in tests/data/perf_gate (one
# baseline, one fresh file per case) and checks each case's exit code
# and the output line that gives its verdict.
#
# Usage: perf_gate_rules.sh <check_perf.sh> <fixture dir>
set -u

check="$1"
data="$2"
base="$data/baseline.json"
# The cases pin the defaults the ctest gate runs with.
unset EHDSE_SKIP_PERF_GATE EHDSE_PERF_TOLERANCE

failures=0
# expect <exit code> <line the output must contain> <command...>
expect() {
    local want="$1" line="$2" out rc
    shift 2
    out=$("$@" 2>&1)
    rc=$?
    if [ "$rc" -eq "$want" ] && grep -qF -- "$line" <<<"$out"; then
        echo "ok   exit $rc: $line"
    else
        echo "FAIL exit $rc (want $want), or no line \"$line\" in:"
        sed 's/^/       /' <<<"$out"
        failures=$((failures + 1))
    fi
}

# batch_speedup_x (baseline 2) must read at least (1 - 0.15) x 2 = 1.7;
# one step below in the last printed digit fails, and the tolerance
# variable moves the floor.
expect 0 "ok   batch_speedup_x: 1.7 x" \
    "$check" "$data/ratio_at_floor.json" "$base"
expect 1 "FAIL batch_speedup_x: 1.69999 x" \
    "$check" "$data/ratio_below_floor.json" "$base"
expect 0 "ok   batch_speedup_x: 1.69999 x" \
    env EHDSE_PERF_TOLERANCE=0.2 "$check" "$data/ratio_below_floor.json" "$base"
# evals/s rows (baseline 100): -14% passes, -16% fails.
expect 0 "ok   scalar_evals_per_s: 86 evals/s" \
    "$check" "$data/evals_minus_14pct.json" "$base"
expect 1 "FAIL scalar_evals_per_s: 84 evals/s" \
    "$check" "$data/evals_minus_16pct.json" "$base"
# The harvester bench's <backend>_batch_speedup rows stay informational,
# even at half their baseline.
expect 0 "info electromagnetic_batch_speedup = 2 x" \
    "$check" "$data/backend_speedup_half.json" "$base"
# Both fingerprints are printed; a baseline without one reads "none".
expect 0 'host fresh:    {"hardware_concurrency": 1, "compiler": "GNU 12.2.0"' \
    "$check" "$data/evals_minus_14pct.json" "$base"
expect 0 "host baseline: none" \
    "$check" "$data/evals_minus_14pct.json" "$base"
expect 2 "no committed baseline" \
    "$check" "$data/ratio_at_floor.json" "$data/no_such_baseline.json"
expect 77 "perf gate skipped" \
    env EHDSE_SKIP_PERF_GATE=1 "$check" "$data/ratio_at_floor.json" "$base"

if [ "$failures" -ne 0 ]; then
    echo "$failures perf gate rule case(s) failed"
    exit 1
fi
echo "all perf gate rule cases passed"
