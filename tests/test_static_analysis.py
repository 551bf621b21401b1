"""Tier-1 gate: the whole source tree passes `repro-lint` with no findings.

This is the machine-checked version of the review-time invariants the
reproduction's numbers rest on: seeded determinism (R1), a shared protocol
contract across every baseline (R2), numeric hygiene (R3), a public API
that matches its documentation and tests (R4), whole-program RNG
reachability (R7), experiment-registry completeness (R8), observability
event-schema conformance (R9), RNG draw-order safety (R10), fork-safety of
the sweep workers (R11) and kernel-equivalence registration (R15).  Any
new violation must either be fixed or carry an explicit
`# repro: allow-<rule>` suppression with a rationale.
"""

from __future__ import annotations

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
    assert main([str(SRC)]) == 0
    assert "OK" in capsys.readouterr().out
