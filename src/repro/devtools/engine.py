"""The lint engine: discovery, pass-1 indexing, pass-2 rules.

A run has two passes:

**Pass 1** touches every file independently: parse, run the per-module
rules, build the module's :class:`~repro.devtools.index.ModuleIndex`.

**Pass 2** assembles the module indexes into a
:class:`~repro.devtools.index.ProjectIndex` and runs every rule's
``check_project`` -- the whole-program families over the index plus the
cross-file checks.

Every finding blocks.  Typical use::

    from repro.devtools import LintEngine

    report = LintEngine().lint_paths(["src"])
    if not report.ok:
        ...
"""

from __future__ import annotations

import ast
import time
from pathlib import Path
from typing import Iterable, Sequence

from repro.devtools.config import DEFAULT_CONFIG, LintConfig
from repro.devtools.findings import Finding, LintReport
from repro.devtools.index import ProjectIndex, build_module_index
from repro.devtools.rules import ModuleContext, ProjectContext, Rule, \
    create_rules


def find_repo_root(start: Path) -> Path | None:
    """Nearest ancestor (inclusive) holding a pyproject.toml."""
    for candidate in (start, *start.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return None


def package_base(path: Path) -> Path:
    """Scan base of a single file: above its outermost package.

    ``src/repro/core/fcat.py`` lints as ``repro/core/fcat.py`` (walking up
    while ``__init__.py`` marks a package), so directory-scoped rules see
    the same paths whether a whole tree or one changed file is linted.
    """
    base = path.parent
    while (base / "__init__.py").is_file() and base.parent != base:
        base = base.parent
    return base


class LintEngine:
    """Run a set of rules over a tree of Python files."""

    def __init__(self, config: LintConfig | None = None,
                 select: Iterable[str] = ()) -> None:
        self.config = config or DEFAULT_CONFIG
        self.rules: list[Rule] = create_rules(select)

    # -- pass 1 ------------------------------------------------------------

    def _discover(self, paths: Sequence[str | Path]
                  ) -> tuple[Path, list[tuple[Path, str]]]:
        files: list[tuple[Path, str]] = []
        roots = [Path(path) for path in paths]
        scan_root = roots[0] if roots else Path(".")
        for root in roots:
            if root.is_file():
                base = package_base(root)
                files.append((root, root.relative_to(base).as_posix()))
            else:
                for path in sorted(p for p in root.rglob("*.py")
                                   if "__pycache__" not in p.parts):
                    files.append((path, path.relative_to(root).as_posix()))
        return scan_root, files

    def build_project(self, paths: Sequence[str | Path]) -> tuple[
            ProjectContext, list[Finding]]:
        """Pass 1 over every .py file under ``paths``.

        Returns the assembled project (modules + whole-program index) and
        the findings produced so far (parse errors and per-module rules).
        """
        scan_root, files = self._discover(paths)
        findings: list[Finding] = []
        modules: list[ModuleContext] = []
        records = []
        for path, relpath in files:
            source = path.read_text(encoding="utf-8")
            try:
                tree = ast.parse(source, filename=str(path))
            except SyntaxError as error:
                findings.append(Finding(
                    path=relpath, line=error.lineno or 1, rule="parse-error",
                    message=f"cannot parse: {error.msg}"))
                continue
            module = ModuleContext(path=path, relpath=relpath, source=source,
                                   tree=tree)
            modules.append(module)
            for rule in self.rules:
                findings.extend(rule.check_module(module, self.config))
            records.append(
                build_module_index(module.dotted_name, relpath, tree))
        project = ProjectContext(
            modules=modules, repo_root=find_repo_root(scan_root.resolve()),
            index=ProjectIndex(records))
        return project, findings

    # -- pass 2 -------------------------------------------------------------

    def lint_paths(self, paths: Sequence[str | Path]) -> LintReport:
        started = time.perf_counter()
        project, findings = self.build_project(paths)
        index_seconds = time.perf_counter() - started
        for rule in self.rules:
            findings.extend(rule.check_project(project, self.config))
        return LintReport(findings=sorted(findings),
                          modules_checked=len(project.modules),
                          rules_run=tuple(rule.name for rule in self.rules),
                          index_seconds=index_seconds)
