#!/usr/bin/env bash
# One-shot local CI: static analysis + the tier-1 test suite.
#
#   scripts/check.sh            # lint src/ + tests/ + scripts/, then pytest
#   scripts/check.sh --lint     # lint stages only
#
# src/ findings block; tests/ and scripts/ run a reduced hygiene rule set
# in warn-only mode (test code may poke at internals, but stray
# `import random` or mutable defaults are still worth seeing).
#
# Exits non-zero on the first failing stage.
set -euo pipefail
cd "$(dirname "$0")/.."

case "${1:-}" in
    ""|--lint) ;;
    *) echo "usage: scripts/check.sh [--lint]" >&2; exit 2 ;;
esac

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# Hygiene subset applied to non-src trees (advisory only).
ADVISORY_RULES="no-import-random,no-global-np-random,mutable-default,float-equality"

echo "== repro-lint src =="
python -m repro.devtools src

echo "== repro-lint tests/ scripts/ (advisory) =="
python -m repro.devtools --no-cache --warn-only --rules "$ADVISORY_RULES" tests scripts

if [[ "${1:-}" == "--lint" ]]; then
    exit 0
fi

echo "== tier-1 pytest =="
python -m pytest -x -q
