"""Shared fixture helpers: build a throwaway tree and lint it."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.devtools import LintEngine, LintReport


class LintTree:
    """Write files under a tmp root, then lint them with selected rules."""

    def __init__(self, root: Path) -> None:
        self.root = root

    def write(self, relpath: str, source: str) -> Path:
        path = self.root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        return path

    def lint(self, *rules: str) -> LintReport:
        return LintEngine(select=rules).lint_paths([self.root])

    def rule_findings(self, *rules: str) -> list[str]:
        """Findings as `path:line rule` strings."""
        report = self.lint(*rules)
        return [f"{f.path}:{f.line} {f.rule}" for f in report.findings]


@pytest.fixture
def tree(tmp_path) -> LintTree:
    return LintTree(tmp_path / "src")
