#!/usr/bin/env bash
# check_docs.sh — fail when README.md or docs/*.md reference repo paths
# or constants that do not exist, so documentation cannot silently rot as
# the tree moves, and when a load-bearing doc section disappears. Wired into
# CTest as `docs_references` (tier-1 catches it).
#
# What counts as a reference:
#   * any token rooted at a first-level source dir:
#       src/... docs/... tests/... tools/... bench/... examples/... scripts/...
#     (tokens inside longer paths, e.g. ./build/tools/..., are ignored);
#   * any ALL-CAPS top-level markdown file (ROADMAP.md, DESIGN.md, ...).
# Tokens containing a glob (*) are skipped. Trailing sentence punctuation
# is stripped. A path passes when it exists as a file or directory.
#
# Schema ids: every full experiment-spec schema id (ehdse.experiment_spec/N)
# in README.md or docs/*.md must be the one the codec emits, read from
# k_spec_schema in src/spec/json_codec.hpp. Older layouts are mentioned by
# their suffix alone ("older `/2` documents").
#
# Constants: every k_... identifier inside a backticked span of README.md
# or docs/*.md must occur as a word somewhere under src/, so a deleted or
# renamed constant cannot live on in the docs.
#
# Qualified names: every namespace-qualified identifier inside a backticked
# span of README.md or docs/*.md whose first part is a namespace of src/
# (one per first-level source dir — dse::, harvester::, sim::, ... —
# optionally behind ehdse::) must end in a name that occurs as a word
# somewhere under src/, so a deleted or renamed class or function cannot
# live on in the docs either.
#
# Bench names: every bench_<name> word in README.md, DESIGN.md,
# EXPERIMENTS.md or docs/*.md must name a file under bench/ (bench/<word>.*),
# so a deleted bench cannot live on in the docs; and every bench target of
# bench/CMakeLists.txt (the EHDSE_BENCH_TARGETS list plus each bench_...
# add_executable) must appear in README.md's bench listing, the code block
# under its "## Benchmarks" heading.
#
# Manifest phases: the "phases" rows of the manifest example in
# docs/observability.md must be exactly the phases run_rsm_flow opens, in
# both directions: every literal obs_hook.phase("...") name in
# src/dse/rsm_flow.cpp, plus one design-family name (from k_families in
# src/doe/design.cpp) for the selection phase, which carries the design's
# name.
set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root" || exit 2

status=0
checked=0

check_file() {
    local doc="$1"
    local refs
    refs=$(grep -oP '(?<![A-Za-z0-9_/.-])(src|docs|tests|tools|bench|examples|scripts)/[A-Za-z0-9_./-]+|(?<![A-Za-z0-9_/.-])[A-Z][A-Z_]*\.md' \
               "$doc" 2>/dev/null | sed 's/[.,:;)]*$//' | sort -u)
    while IFS= read -r ref; do
        [ -z "$ref" ] && continue
        case "$ref" in
            *'*'*) continue ;;  # glob patterns are not concrete paths
        esac
        checked=$((checked + 1))
        if [ ! -e "$ref" ]; then
            echo "check_docs: $doc references missing path: $ref" >&2
            status=1
        fi
    done <<EOF
$refs
EOF
}

# Sections other docs/tests/tools point readers at; deleting one must
# fail CI, not silently orphan the pointers.
require_section() {
    local doc="$1" pattern="$2"
    checked=$((checked + 1))
    if ! grep -qE -e "$pattern" "$doc" 2>/dev/null; then
        echo "check_docs: $doc lost required section matching: $pattern" >&2
        status=1
    fi
}

spec_schema=$(grep -oP 'k_spec_schema\s*=\s*"\K[^"]+' src/spec/json_codec.hpp)
if [ -z "$spec_schema" ]; then
    echo "check_docs: cannot read k_spec_schema from src/spec/json_codec.hpp" >&2
    status=1
fi

check_schema_ids() {
    local doc="$1" id
    while IFS= read -r id; do
        [ -z "$id" ] && continue
        checked=$((checked + 1))
        if [ "$id" != "$spec_schema" ]; then
            echo "check_docs: $doc names spec schema $id; the code emits $spec_schema" >&2
            status=1
        fi
    done <<EOF
$(grep -oE 'ehdse\.experiment_spec/[0-9]+' "$doc" 2>/dev/null)
EOF
}

check_constants() {
    local doc="$1" name
    while IFS= read -r name; do
        [ -z "$name" ] && continue
        checked=$((checked + 1))
        if ! grep -rqw -e "$name" src; then
            echo "check_docs: $doc names constant $name, which occurs nowhere under src/" >&2
            status=1
        fi
    done <<EOF
$(grep -oE '`[^`]+`' "$doc" 2>/dev/null | grep -oP '(?<![A-Za-z0-9_])k_[A-Za-z0-9_]+' | sort -u)
EOF
}

namespaces=$(for dir in src/*/; do basename "$dir"; done | paste -sd'|')

check_qualified_names() {
    local doc="$1" name
    while IFS= read -r name; do
        [ -z "$name" ] && continue
        checked=$((checked + 1))
        if ! grep -rqw -e "${name##*::}" src; then
            echo "check_docs: $doc names $name, but ${name##*::} occurs nowhere under src/" >&2
            status=1
        fi
    done <<EOF
$(grep -oE '`[^`]+`' "$doc" 2>/dev/null | grep -oP "(?<![A-Za-z0-9_:])(ehdse::)?($namespaces)(::[A-Za-z_][A-Za-z0-9_]*)+" | sort -u)
EOF
}

check_bench_names() {
    local doc="$1" name
    while IFS= read -r name; do
        [ -z "$name" ] && continue
        checked=$((checked + 1))
        if ! compgen -G "bench/$name.*" >/dev/null; then
            echo "check_docs: $doc names $name, which is no file under bench/" >&2
            status=1
        fi
    done <<EOF
$(grep -oP '(?<![A-Za-z0-9_])bench_[A-Za-z0-9_]+' "$doc" 2>/dev/null | sort -u)
EOF
}

check_bench_listing() {
    local cmake=bench/CMakeLists.txt listing targets name
    listing=$(awk '/^## Benchmarks/ { on = 1; next }
                   on && /^```/ { if (fence++) exit; next }
                   on && fence' README.md)
    targets=$({ awk '/set\(EHDSE_BENCH_TARGETS/ { on = 1; next } on { print } on && /\)/ { exit }' "$cmake"
                grep -oP 'add_executable\(\Kbench_\w+' "$cmake"; } |
                  grep -oE 'bench_[A-Za-z0-9_]+' | sort -u)
    if [ -z "$listing" ] || [ -z "$targets" ]; then
        echo "check_docs: cannot read the bench targets from $cmake and README.md's bench listing" >&2
        status=1
        return
    fi
    while IFS= read -r name; do
        checked=$((checked + 1))
        if ! grep -qw -e "$name" <<<"$listing"; then
            echo "check_docs: README.md's bench listing lacks $name, which $cmake builds" >&2
            status=1
        fi
    done <<<"$targets"
}

check_manifest_phases() {
    local doc=docs/observability.md flow=src/dse/rsm_flow.cpp
    local code_phases families doc_phases name designs=0
    code_phases=$(grep -oP 'obs_hook\.phase\("\K[^"]+' "$flow" | sort -u)
    families=$(grep -oP '\{family::\w+,\s*"\K[^"]+' src/doe/design.cpp)
    doc_phases=$(awk '/"phases": \[/ { on = 1; next } on && /^ *\]/ { exit } on' "$doc" |
                     grep -oP '"name":\s*"\K[^"]+')
    if [ -z "$code_phases" ] || [ -z "$families" ] || [ -z "$doc_phases" ]; then
        echo "check_docs: cannot read flow phases from $flow, src/doe/design.cpp and $doc" >&2
        status=1
        return
    fi
    while IFS= read -r name; do
        checked=$((checked + 1))
        if grep -qxF -e "$name" <<<"$families"; then
            designs=$((designs + 1))
        elif ! grep -qxF -e "$name" <<<"$code_phases"; then
            echo "check_docs: $doc lists manifest phase $name, which run_rsm_flow does not open" >&2
            status=1
        fi
    done <<<"$doc_phases"
    while IFS= read -r name; do
        checked=$((checked + 1))
        if ! grep -qxF -e "$name" <<<"$doc_phases"; then
            echo "check_docs: run_rsm_flow opens phase $name, which the $doc manifest example lacks" >&2
            status=1
        fi
    done <<<"$code_phases"
    checked=$((checked + 1))
    if [ "$designs" -ne 1 ]; then
        echo "check_docs: $doc manifest example lists $designs design-named phases, not 1" >&2
        status=1
    fi
}

for doc in README.md docs/*.md; do
    [ -f "$doc" ] || continue
    check_file "$doc"
    check_schema_ids "$doc"
    check_constants "$doc"
    check_qualified_names "$doc"
done
for doc in README.md DESIGN.md EXPERIMENTS.md docs/*.md; do
    [ -f "$doc" ] && check_bench_names "$doc"
done
check_bench_listing
check_manifest_phases

require_section docs/architecture.md '^## .*[Ee]xperiment spec'
require_section docs/architecture.md '^## .*[Dd]eterminism'
require_section docs/architecture.md '^## .*[Pp]luggable pipeline'
require_section docs/architecture.md 'make_surrogate'
require_section docs/architecture.md 'make_design'
require_section docs/architecture.md '^## .*[Bb]atch kernel'
require_section docs/architecture.md '^### Harvester backends'
require_section docs/architecture.md 'make_harvester'
require_section DESIGN.md '^### Harvester parameter envelopes'
require_section docs/observability.md '^### Manifest JSON schema'
require_section docs/observability.md 'sim\.batch\.'
require_section docs/observability.md 'dse\.batch\.'
require_section EXPERIMENTS.md 'BENCH_batch_kernel\.json'
require_section EXPERIMENTS.md 'BENCH_harvester_backends\.json'
require_section EXPERIMENTS.md 'run_benchmarks\.sh'
require_section docs/observability.md '\-\-dump\-spec'
require_section docs/observability.md 'spec_hash'
require_section docs/observability.md 'options\.fit'
require_section docs/observability.md 'options\.surrogate'
require_section docs/service.md '^## Framing'
require_section docs/service.md '^## Messages'
require_section docs/service.md '^## Error codes'
require_section docs/service.md '^## Cancellation'
require_section docs/service.md '^## Quotas'
require_section docs/service.md '^## Graceful drain'
require_section docs/service.md 'ehdse\.svc/1'
require_section docs/service.md 'frame_too_large'
require_section docs/service.md 'k_max_frame_bytes'
require_section docs/service.md '\-\-list\-harvesters'
require_section docs/service.md "${spec_schema//./\\.}"
require_section docs/paper_mapping.md 'Electrostatic backend'
require_section docs/testing.md '^## Test taxonomy'
require_section docs/testing.md '^## Seed-repro workflow'
require_section docs/testing.md '^## Fault injection'
require_section docs/testing.md 'EHDSE_TESTKIT_SEED'
require_section docs/testing.md 'EHDSE_FUZZ_MS'
require_section docs/testing.md 'ctest --test-dir build -L testkit'

if [ "$status" -eq 0 ]; then
    echo "check_docs: $checked references ok"
else
    echo "check_docs: FAILED (stale references above)" >&2
fi
exit $status
