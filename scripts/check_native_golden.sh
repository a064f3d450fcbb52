#!/usr/bin/env bash
# check_native_golden.sh — build with -march=native (EHDSE_NATIVE_ARCH=ON)
# in its own tree and run the golden bit-identity test there. The
# libraries compile with -ffp-contract=off (src/CMakeLists.txt), so an
# FMA-capable native build must reproduce tests/data/golden/ byte for
# byte, exactly as the portable build does.
# Usage:
#   scripts/check_native_golden.sh            # tree: build-native
#   scripts/check_native_golden.sh /tmp/n     # tree: /tmp/n
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

tree="${1:-build-native}"
echo "== native-arch golden check (tree: $tree) =="
cmake -B "$tree" -S . -DEHDSE_NATIVE_ARCH=ON \
      -DEHDSE_BUILD_BENCH=OFF -DEHDSE_BUILD_EXAMPLES=OFF
cmake --build "$tree" -j "$(nproc)" --target dse_golden_test
ctest --test-dir "$tree" -R '^GoldenEvaluate\.' --output-on-failure
