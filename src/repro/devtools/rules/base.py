"""Rule interface and the contexts rules receive.

A rule sees either one parsed module at a time (:meth:`Rule.check_module`)
or the whole project at once (:meth:`Rule.check_project`) for cross-file
invariants.  Project rules get both the parsed modules *and* the pass-1
:class:`~repro.devtools.index.ProjectIndex` (symbol tables, call
records, global-access summaries) on ``project.index``.  Rules yield
:class:`~repro.devtools.findings.Finding` objects, and every one blocks.
"""

from __future__ import annotations

import ast
from abc import ABC
from pathlib import Path
from typing import ClassVar, Iterable, TYPE_CHECKING

from repro.devtools.config import LintConfig
from repro.devtools.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.devtools.index import ProjectIndex


class ModuleContext:
    """One parsed Python file plus its lint-relevant metadata."""

    def __init__(self, path: Path, relpath: str, source: str,
                 tree: ast.Module) -> None:
        self.path = path
        #: POSIX path relative to the scan root, e.g. ``repro/core/fcat.py``.
        self.relpath = relpath
        self.source = source
        self.tree = tree

    @property
    def dotted_name(self) -> str:
        """``repro/sim/__init__.py`` -> ``repro.sim``; modules keep stems."""
        parts = self.relpath[: -len(".py")].split("/")
        if parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)


class ProjectContext:
    """All modules of one scan, plus where the repository itself lives."""

    def __init__(self, modules: list[ModuleContext],
                 repo_root: Path | None = None,
                 index: "ProjectIndex | None" = None) -> None:
        self.modules = modules
        #: Directory containing ``pyproject.toml``; None when scanning a bare
        #: fixture tree, which disables the repository file checks.
        self.repo_root = repo_root
        #: Pass-1 whole-program index; always present after engine builds.
        self.index = index


class Rule(ABC):
    """Base class every lint rule registers under a unique ``name``."""

    name: ClassVar[str]
    description: ClassVar[str]

    def check_module(self, module: ModuleContext,
                     config: LintConfig) -> Iterable[Finding]:
        return ()

    def check_project(self, project: ProjectContext,
                      config: LintConfig) -> Iterable[Finding]:
        return ()

    def finding(self, module_or_path: ModuleContext | str, line: int,
                message: str) -> Finding:
        path = (module_or_path.relpath
                if isinstance(module_or_path, ModuleContext)
                else module_or_path)
        return Finding(path=path, line=line, rule=self.name, message=message)
