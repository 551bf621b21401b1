"""Checked-in baseline of grandfathered findings.

A baseline lets a new rule land with ``error`` severity while the tree is
still being swept: existing findings are recorded in
``.repro-lint-baseline.json`` and marked ``baselined`` (reported, but not
blocking) until someone fixes them and regenerates the file with
``repro-lint --write-baseline``.  ``--no-baseline`` runs strict.

Entries match on ``(path, rule, message)`` -- deliberately *not* on line
numbers, so unrelated edits above a grandfathered finding do not break the
build.  A finding that changes its message (e.g. because the offending code
changed) stops matching and must be re-fixed or re-baselined, which is the
point.

The committed baseline of this repository is empty: every rule family
landed with a fully swept tree.  The machinery stays because the next rule
family will want it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.devtools.findings import Finding

DEFAULT_BASELINE_NAME = ".repro-lint-baseline.json"
BASELINE_VERSION = 1


@dataclass
class Baseline:
    """Set of grandfathered findings keyed by ``(path, rule, message)``."""

    entries: set[tuple[str, str, str]] = field(default_factory=set)

    @staticmethod
    def key(finding: Finding) -> tuple[str, str, str]:
        return (finding.path, finding.rule, finding.message)

    def matches(self, finding: Finding) -> bool:
        return self.key(finding) in self.entries

    def apply(self, findings: Iterable[Finding]) -> list[Finding]:
        """Mark every matching, unsuppressed finding as baselined."""
        return [finding.as_baselined()
                if not finding.suppressed and self.matches(finding)
                else finding
                for finding in findings]

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        """Read a baseline file; missing or corrupt files mean "empty"."""
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return cls()
        entries = set()
        for entry in payload.get("findings", []):
            try:
                entries.add((entry["path"], entry["rule"], entry["message"]))
            except (KeyError, TypeError):
                continue
        return cls(entries=entries)

    @classmethod
    def from_findings(cls, findings: Iterable[Finding]) -> "Baseline":
        return cls(entries={cls.key(finding) for finding in findings})

    def write(self, path: Path) -> None:
        payload = {
            "version": BASELINE_VERSION,
            "findings": [
                {"path": entry[0], "rule": entry[1], "message": entry[2]}
                for entry in sorted(self.entries)
            ],
        }
        path.write_text(json.dumps(payload, indent=2) + "\n",
                        encoding="utf-8")
