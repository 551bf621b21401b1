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
        def check(p, log=[]):
            return p == 1.0

        def noted(p):
            return p == 0.5  # repro: allow-float-equality -- golden sentinel
        """)
    report = tree.lint("float-equality", "mutable-default")
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
                            "cache", "timing", "findings"}
    for finding in payload["findings"]:
        assert set(finding) == {"path", "line", "rule", "message",
                                "suppressed"}
    assert payload["counts"]["blocking"] == 2
    assert payload["counts"]["suppressed"] == 1
    assert payload["cache"] == {"hits": 0, "misses": 0}


def test_text_summary_counts_every_state():
    report = LintReport(
        findings=[
            Finding(path="a.py", line=1, rule="r", message="boom"),
            Finding(path="a.py", line=4, rule="r", message="ok",
                    suppressed=True),
        ],
        modules_checked=1, cache_hits=3, cache_misses=1)
    text = render_text(report)
    assert "1 blocking finding " in text
    assert "(1 suppressed)" in text
    assert "[cache: 3 hits, 1 misses]" in text


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
