#!/usr/bin/env bash
# check_perf.sh — compare a freshly produced BENCH_<name>.json against the
# committed baseline at the repo root and fail on a throughput regression.
# This is the perf gate behind the `perf`-labelled ctest: no harvester
# backend's envelope evaluation may silently decay.
#
# Usage: check_perf.sh <fresh.json> [<baseline.json>]
#   When <baseline.json> is omitted it is looked up at the repo root by
#   the fresh file's basename.
#
# Rule (per metric, matched by name): every metric in unit "evals/s" is
#   gated and must read at least (1 - tolerance) * its baseline — default
#   tolerance 0.15 (the >15% regression gate), override with
#   EHDSE_PERF_TOLERANCE. Every other metric is informational only.
#
# Both files' "host" fingerprints (bench/bench_json.hpp) are printed above
# the verdict ("none" for a file without one), each with its "run" line:
# the host's steal share over that run. Neither ever changes the verdict.
#
# Exit codes: 0 ok, 1 regression, 2 usage/parse error,
#   77 skipped (EHDSE_SKIP_PERF_GATE set — ctest reports SKIP).
set -u

if [ -n "${EHDSE_SKIP_PERF_GATE:-}" ]; then
    echo "perf gate skipped (EHDSE_SKIP_PERF_GATE set)"
    exit 77
fi

fresh="${1:-}"
if [ -z "$fresh" ] || [ ! -f "$fresh" ]; then
    echo "usage: $0 <fresh.json> [<baseline.json>]" >&2
    exit 2
fi
root="$(cd "$(dirname "$0")/.." && pwd)"
baseline="${2:-$root/$(basename "$fresh")}"
if [ ! -f "$baseline" ]; then
    echo "check_perf: no committed baseline at $baseline" >&2
    exit 2
fi

tolerance="${EHDSE_PERF_TOLERANCE:-0.15}"

# The metric lines are flat (one object per line, fixed key order — see
# bench/bench_json.hpp), so awk can read them without a JSON library.
# Prints: name value unit trials iqr ("-" for a row without trials).
read_metrics() {
    awk -F'"' '/"metric":/ {
        name = $4; unit = $10;
        split($0, parts, /"value": /); split(parts[2], v, /,/);
        trials = "-"; iqr = "-";
        if (split($0, t, /"trials": /) > 1) { split(t[2], w, /[,}]/); trials = w[1]; }
        if (split($0, q, /"iqr": /) > 1) { split(q[2], w, /[,}]/); iqr = w[1]; }
        print name, v[1], unit, trials, iqr;
    }' "$1"
}

# The value of a top-level object line ("host", "run"), or "none".
top_level() {
    local value
    value=$(sed -n "s/^ *\"$1\": *\(.*[^,]\),*\$/\1/p" "$2" | head -n 1)
    echo "${value:-none}"
}

echo "  host fresh:    $(top_level host "$fresh")"
echo "  host baseline: $(top_level host "$baseline")"
echo "  run fresh:     $(top_level run "$fresh")"
echo "  run baseline:  $(top_level run "$baseline")"

status=0
checked=0
while read -r name value unit trials iqr; do
    base=$(read_metrics "$baseline" | awk -v n="$name" '$1 == n {print $2; exit}')
    if [ -z "$base" ]; then
        echo "  new metric $name = $value $unit (no baseline)"
        continue
    fi
    case "$unit" in
    evals/s)
        checked=$((checked + 1))
        read -r ok floor delta < <(awk -v f="$value" -v b="$base" -v t="$tolerance" \
            'BEGIN {fl = (1 - t) * b; printf "%d %.6g %+.1f%%\n", (f >= fl), fl, 100 * (f / b - 1)}')
        spread=""
        [ "$trials" != "-" ] && spread=", median of $trials trials, IQR $iqr"
        if [ "$ok" = 1 ]; then
            echo "  ok   $name: $value $unit vs baseline $base ($delta$spread; floor $floor)"
        else
            echo "  FAIL $name: $value $unit below its floor $floor = (1 - $tolerance) x baseline $base ($delta$spread)"
            status=1
        fi
        ;;
    *)
        echo "  info $name = $value $unit"
        ;;
    esac
done < <(read_metrics "$fresh")

if [ "$checked" -eq 0 ]; then
    echo "check_perf: no gated metrics found in $fresh" >&2
    exit 2
fi
[ "$status" -eq 0 ] && echo "perf gate ok ($checked metrics checked)"
exit "$status"
