"""Reporter output, including the pinned JSON schema.

The JSON reporter is consumed by CI annotations; its schema is a contract.
``test_json_matches_golden`` pins the full rendered output for a fixed
fixture tree against ``golden/report.json`` -- any field added, removed or
renamed shows up as a golden diff and must be updated deliberately in the
same change.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.devtools import Finding, LintEngine, LintReport
from repro.devtools.reporters import render_json, render_text

GOLDEN = Path(__file__).parent / "golden" / "report.json"


def _fixture_report(tree) -> LintReport:
    tree.write("repro/core/bad.py", """\
        import random

        def check(p):
            return p == 1.0
        """)
    report = tree.lint("float-equality", "no-import-random")
    report.index_seconds = 0.0  # wall time is not part of the golden
    return report


def test_json_matches_golden(tree):
    report = _fixture_report(tree)
    rendered = render_json(report)
    assert json.loads(rendered)  # malformed output never reaches the diff
    assert rendered + "\n" == GOLDEN.read_text(encoding="utf-8"), (
        "JSON reporter schema drifted from tests/devtools/golden/report.json;"
        " if the change is deliberate, regenerate the golden file")


def test_json_findings_carry_state_fields(tree):
    report = _fixture_report(tree)
    payload = json.loads(render_json(report))
    assert set(payload) == {"modules_checked", "rules_run", "counts",
                            "timing", "findings"}
    for finding in payload["findings"]:
        assert set(finding) == {"path", "line", "rule", "message"}
    assert payload["counts"] == {"blocking": 2}


def test_text_lists_each_finding_then_the_count():
    report = LintReport(
        findings=[Finding(path="a.py", line=1, rule="r", message="boom")],
        modules_checked=1)
    assert render_text(report).splitlines() == [
        "a.py:1: [r] boom", "1 blocking finding in 1 modules"]


def regenerate_golden() -> None:  # pragma: no cover - manual helper
    """python -c 'import tests.devtools.test_reporters as t; ...' helper."""
    import tempfile

    from tests.devtools.conftest import LintTree

    with tempfile.TemporaryDirectory() as tmp:
        report = _fixture_report(LintTree(Path(tmp) / "src"))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render_json(report) + "\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate_golden()
    print(f"wrote {GOLDEN}")
