#!/usr/bin/env bash
# One-shot local CI: static analysis + the tier-1 test suite.
#
#   scripts/check.sh            # lint src/ + tests/ + scripts/, then pytest
#   scripts/check.sh --lint     # lint stages only
#   scripts/check.sh --changed  # lint only files changed vs HEAD, no pytest
#
# --changed diffs against HEAD by default; set CHANGED_BASE to diff against
# another ref (CI's PR quick gate uses CHANGED_BASE=origin/<base branch>).
#
# src/ findings block; tests/ and scripts/ run a reduced hygiene rule set
# in warn-only mode (test code may poke at internals, but stray
# `import random` or mutable defaults are still worth seeing).
#
# Exits non-zero on the first failing stage.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# Hygiene subset applied to non-src trees (advisory only).
ADVISORY_RULES="no-import-random,no-global-np-random,mutable-default,float-equality"
# Per-file rule families for --changed: the whole-program rules
# (rng-reachability, fork-safety, ...) need the full tree and would
# false-positive on a file subset.
CHANGED_RULES="no-import-random,no-global-np-random,rng-construction,rng-annotation,float-equality,mutable-default,rng-order"

if [[ "${1:-}" == "--changed" ]]; then
    base="${CHANGED_BASE:-HEAD}"
    mapfile -t changed < <(git diff --name-only "$base" -- '*.py' \
        | while read -r f; do [[ -f "$f" ]] && echo "$f"; done)
    if [[ ${#changed[@]} -eq 0 ]]; then
        echo "== repro-lint --changed: no Python files changed vs $base =="
        exit 0
    fi
    echo "== repro-lint --changed (${#changed[@]} files vs $base) =="
    # A change to the analyzer itself invalidates the per-file shortcut:
    # any rule's behaviour may have shifted, so lint the whole src tree.
    for f in "${changed[@]}"; do
        if [[ "$f" == src/repro/devtools/* ]]; then
            echo "== devtools changed: full src lint =="
            python -m repro.devtools src
            exit $?
        fi
    done
    src_files=() other_files=()
    for f in "${changed[@]}"; do
        if [[ "$f" == src/* ]]; then src_files+=("$f");
        else other_files+=("$f"); fi
    done
    status=0
    if [[ ${#src_files[@]} -gt 0 ]]; then
        python -m repro.devtools --no-cache --rules "$CHANGED_RULES" \
            "${src_files[@]}" || status=$?
    fi
    if [[ ${#other_files[@]} -gt 0 ]]; then
        python -m repro.devtools --no-cache --warn-only --rules "$ADVISORY_RULES" \
            "${other_files[@]}"
    fi
    exit "$status"
fi

echo "== repro-lint src =="
python -m repro.devtools src

echo "== repro-lint tests/ scripts/ (advisory) =="
python -m repro.devtools --no-cache --warn-only --rules "$ADVISORY_RULES" tests scripts

if [[ "${1:-}" == "--lint" ]]; then
    exit 0
fi

echo "== tier-1 pytest =="
python -m pytest -x -q
