"""Tier-1 gate: the whole source tree passes `repro-lint` with no findings.

This is the machine-checked version of the review-time invariants the
reproduction's numbers rest on: seeded determinism (R1), a shared protocol
contract across every baseline (R2), numeric hygiene (R3), a public API
that matches its documentation and tests (R4), whole-program RNG
reachability (R7), experiment-registry completeness (R8), observability
event-schema conformance (R9), RNG draw-order safety (R10), fork-safety of
the sweep workers (R11) and kernel-equivalence registration (R15).  Any
new violation must either be fixed or carry an explicit
`# repro: allow-<rule>` suppression with a rationale -- the gate runs
strict, without the grandfather baseline.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.devtools import LintEngine
from repro.devtools.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"


def test_source_tree_is_lint_clean():
    report = LintEngine().lint_paths([SRC])
    assert report.modules_checked > 50  # the whole tree, not a subset
    rendered = "\n".join(f.render() for f in report.unsuppressed)
    assert report.ok, f"unsuppressed lint findings:\n{rendered}"


def test_every_rule_ran():
    report = LintEngine().lint_paths([SRC])
    assert set(report.rules_run) == {
        "no-import-random",
        "no-global-np-random",
        "rng-construction",
        "rng-annotation",
        "protocol-conformance",
        "float-equality",
        "mutable-default",
        "public-api",
        "rng-reachability",
        "experiment-registry",
        "event-schema",
        "rng-order",
        "fork-safety",
        "kernel-equivalence",
    }


def test_cli_exits_zero_on_repo(capsys):
    assert main(["--no-cache", str(SRC)]) == 0
    assert "OK" in capsys.readouterr().out


def test_strict_mode_is_clean_and_baseline_is_empty(capsys):
    """The committed baseline grandfathers nothing: --no-baseline passes
    too, and the checked-in file has an empty findings list."""
    assert main(["--no-cache", "--no-baseline", str(SRC)]) == 0
    capsys.readouterr()
    baseline = json.loads(
        (REPO_ROOT / ".repro-lint-baseline.json").read_text())
    assert baseline["findings"] == []


def test_warm_cache_run_serves_every_module_from_cache(tmp_path):
    """Asserted via hit/miss counters, not wall-clock: the cold run misses
    every module, the warm run hits every module (so pass 1 -- parse,
    per-file rules, indexing -- was skipped for the entire tree)."""
    cache = tmp_path / "cache.json"
    cold = LintEngine(cache_path=cache).lint_paths([SRC])
    assert cold.cache_hits == 0
    assert cold.cache_misses == cold.modules_checked > 50
    warm = LintEngine(cache_path=cache).lint_paths([SRC])
    assert warm.cache_misses == 0
    assert warm.cache_hits == warm.modules_checked == cold.modules_checked
    assert warm.findings == cold.findings
