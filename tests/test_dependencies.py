"""Declared runtime dependencies match what ``src/repro`` imports.

The third-party top-level imports found by ``ast`` must equal the names in
pyproject's ``[project] dependencies``: an undeclared import breaks a fresh
install, and a declared but unused package is dead weight.  pyproject is
read with a regex because ``tomllib`` is missing on Python 3.10.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def declared_dependencies() -> set[str]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    match = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project,
                      re.MULTILINE | re.DOTALL)
    assert match, "pyproject.toml [project] has no dependencies list"
    return {re.split(r"[\s<>=!~;\[]", spec, maxsplit=1)[0]
            .lower().replace("-", "_")
            for spec in re.findall(r'"([^"]+)"', match.group(1))}


def third_party_imports() -> set[str]:
    found: set[str] = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found - set(sys.stdlib_module_names) - {"repro"}


def test_declared_dependencies_are_exactly_the_imported_ones():
    assert third_party_imports() == declared_dependencies()
