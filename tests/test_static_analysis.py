"""Tier-1 gate: the whole source tree passes `repro-lint` with no findings.

The rules left after the planted-violation audit (docs/static_analysis.md)
each guard a fault no tier-1 test catches.  Every finding blocks: fix the
code, or the rule.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.devtools import LintEngine

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def report():
    """One lint of the whole tree, shared by every check here."""
    return LintEngine().lint_paths([SRC])


def test_source_tree_is_lint_clean(report):
    assert report.modules_checked > 50  # the whole tree, not a subset
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.ok, f"lint findings:\n{rendered}"


def test_every_rule_ran(report):
    assert set(report.rules_run) == {
        "no-import-random",
        "no-global-np-random",
        "rng-construction",
        "float-equality",
        "rng-order",
        "fork-safety",
        "kernel-equivalence",
    }
