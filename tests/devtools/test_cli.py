"""CLI and reporter behaviour of `repro-lint`."""

from __future__ import annotations

import json

import pytest

from repro.devtools import LintEngine, rule_names
from repro.devtools.cli import main


@pytest.fixture
def bad_tree(tree):
    tree.write("repro/core/bad.py", """\
        import random

        def check(p):
            return p == 1.0
        """)
    return tree


def test_exit_zero_on_clean_tree(tree, capsys):
    tree.write("repro/core/fine.py", "X = 1\n")
    assert main([str(tree.root)]) == 0
    assert "OK: 0 blocking findings" in capsys.readouterr().out


def test_exit_one_on_findings(bad_tree, capsys):
    assert main([str(bad_tree.root)]) == 1
    out = capsys.readouterr().out
    assert "float-equality" in out and "no-import-random" in out


def test_json_format_is_parseable(bad_tree, capsys):
    assert main(["--format", "json", str(bad_tree.root)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["blocking"] == 2
    assert {f["rule"] for f in payload["findings"]} == {
        "float-equality", "no-import-random"}


def test_rule_selection(bad_tree, capsys):
    assert main(["--rules", "rng-order", str(bad_tree.root)]) == 0
    capsys.readouterr()


def test_unknown_rule_is_usage_error(bad_tree, capsys):
    assert main(["--rules", "does-not-exist", str(bad_tree.root)]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_missing_path_is_usage_error(tmp_path, capsys):
    assert main([str(tmp_path / "nope")]) == 2
    assert "no such path" in capsys.readouterr().err


def test_list_rules_names_every_rule(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for name in rule_names():
        assert name in out


def test_parse_error_is_reported(tree):
    tree.write("repro/core/broken.py", "def broken(:\n")
    report = LintEngine().lint_paths([tree.root])
    assert [f.rule for f in report.findings] == ["parse-error"]


def test_json_report_carries_pass1_wall_time(tree, capsys):
    tree.write("repro/core/fine.py", "X = 1\n")
    assert main(["--format", "json", str(tree.root)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["timing"]["pass1_seconds"] >= 0.0
