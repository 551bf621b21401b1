"""Finding and report types shared by the lint engine, rules and reporters.

A :class:`Finding` is one rule violation anchored to a file and line.  Every
finding blocks the run: there is no way to silence one except fixing it (or
the rule).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at ``path:line``."""

    #: Path of the offending file.  Module findings are relative to the scan
    #: root (e.g. ``repro/core/scat.py``); repository-level findings (docs,
    #: test manifests) are relative to the repository root.
    path: str
    #: 1-based line number the finding anchors to.
    line: int
    #: Registry name of the rule that fired (e.g. ``float-equality``).
    rule: str
    #: Human-readable explanation of what is wrong and how to fix it.
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class LintReport:
    """Everything one engine run produced."""

    findings: list[Finding] = field(default_factory=list)
    #: Number of Python modules the engine parsed.
    modules_checked: int = 0
    #: Names of the rules that ran.
    rules_run: tuple[str, ...] = ()
    #: Wall-clock seconds pass 1 (discovery + parse + index) took.
    index_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """True when nothing was found (the CI gate)."""
        return not self.findings
