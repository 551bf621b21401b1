"""Render a LintReport for humans (text) or tooling (JSON)."""

from __future__ import annotations

import json

from repro.devtools.findings import LintReport


def render_text(report: LintReport, *, show_suppressed: bool = False) -> str:
    """One finding per line plus a one-line summary, flake8-style."""
    lines = [finding.render() for finding in report.unsuppressed]
    if show_suppressed:
        lines.extend(finding.render() for finding in report.suppressed)
    n_blocking = len(report.blocking)
    summary = (f"{n_blocking} blocking finding"
               f"{'s' if n_blocking != 1 else ''}"
               f" ({len(report.suppressed)} suppressed)"
               f" in {report.modules_checked} modules")
    if not lines:
        return f"OK: {summary}"
    lines.append(summary)
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """Stable machine-readable form for CI annotations.

    The schema is pinned by tests/devtools/test_reporters.py; extend it
    additively and update the golden file in the same change.
    """
    payload = {
        "modules_checked": report.modules_checked,
        "rules_run": list(report.rules_run),
        "counts": {
            "unsuppressed": len(report.unsuppressed),
            "suppressed": len(report.suppressed),
            "blocking": len(report.blocking),
        },
        "timing": {
            "pass1_seconds": round(report.index_seconds, 3),
        },
        "findings": [
            {
                "path": finding.path,
                "line": finding.line,
                "rule": finding.rule,
                "message": finding.message,
                "suppressed": finding.suppressed,
            }
            for finding in report.findings
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
