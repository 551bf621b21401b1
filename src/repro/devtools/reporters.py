"""Render a LintReport for humans (text) or tooling (JSON)."""

from __future__ import annotations

import json

from repro.devtools.findings import LintReport


def render_text(report: LintReport) -> str:
    """One finding per line plus a one-line summary, flake8-style."""
    count = len(report.findings)
    summary = (f"{count} blocking finding{'s' if count != 1 else ''}"
               f" in {report.modules_checked} modules")
    if not report.findings:
        return f"OK: {summary}"
    return "\n".join([*(finding.render() for finding in report.findings),
                      summary])


def render_json(report: LintReport) -> str:
    """Stable machine-readable form for CI annotations.

    The schema is pinned by tests/devtools/test_reporters.py; extend it
    additively and update the golden file in the same change.
    """
    payload = {
        "modules_checked": report.modules_checked,
        "rules_run": list(report.rules_run),
        "counts": {
            "blocking": len(report.findings),
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
            }
            for finding in report.findings
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
