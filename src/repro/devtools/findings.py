"""Finding and report types shared by the lint engine, rules and reporters.

A :class:`Finding` is one rule violation anchored to a file and line.  Every
unsuppressed finding blocks the run.  The engine marks findings whose line
carries a ``# repro: allow-<rule>`` comment as *suppressed*; those are still
collected (so reporters can show them) but do not fail the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


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
    #: True when a ``# repro: allow-<rule>`` comment covers this line.
    suppressed: bool = False

    def as_suppressed(self) -> "Finding":
        return replace(self, suppressed=True)

    def render(self) -> str:
        mark = " (suppressed)" if self.suppressed else ""
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}{mark}"


@dataclass
class LintReport:
    """Everything one engine run produced, split by suppression state."""

    findings: list[Finding] = field(default_factory=list)
    #: Number of Python modules the engine parsed.
    modules_checked: int = 0
    #: Names of the rules that ran.
    rules_run: tuple[str, ...] = ()
    #: Incremental-cache accounting for this run (both zero without a cache).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Wall-clock seconds pass 1 (discovery + parse + index) took.
    index_seconds: float = 0.0

    @property
    def unsuppressed(self) -> list[Finding]:
        return [finding for finding in self.findings if not finding.suppressed]

    @property
    def suppressed(self) -> list[Finding]:
        return [finding for finding in self.findings if finding.suppressed]

    @property
    def blocking(self) -> list[Finding]:
        """Unsuppressed findings: what actually fails the gate."""
        return self.unsuppressed

    @property
    def ok(self) -> bool:
        """True when nothing blocking was found (the CI gate)."""
        return not self.blocking
