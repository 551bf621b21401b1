"""Rule interface and the contexts rules receive.

A rule sees either one parsed module at a time (:meth:`Rule.check_module`)
or the whole project at once (:meth:`Rule.check_project`) for cross-file
invariants.  Project rules get both the parsed modules *and* the pass-1
:class:`~repro.devtools.index.ProjectIndex` (symbol tables, signatures,
call records, global-access summaries) on ``project.index``.  Rules yield
:class:`~repro.devtools.findings.Finding` objects; the engine decides
suppression afterwards, so rules never look at comments.

Module ASTs are parsed lazily: on a warm cache run, pass 1 is replayed from
the cache and a module's ``tree`` is only materialized if a project rule
actually touches it.
"""

from __future__ import annotations

import ast
from abc import ABC
from pathlib import Path
from typing import ClassVar, Iterable, Iterator, TYPE_CHECKING

from repro.devtools.config import LintConfig
from repro.devtools.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.devtools.index import ProjectIndex


class ModuleContext:
    """One Python file plus its lint-relevant metadata.

    ``tree`` parses on first access.  Cache-hit modules skip eager parsing;
    they parsed cleanly when the entry was written and the content hash
    guarantees the source is unchanged, so lazy parsing cannot fail where
    eager parsing would have succeeded.
    """

    def __init__(self, path: Path, relpath: str, source: str,
                 tree: ast.Module | None = None,
                 suppressions: dict[int, set[str]] | None = None) -> None:
        self.path = path
        #: POSIX path relative to the scan root, e.g. ``repro/core/fcat.py``.
        self.relpath = relpath
        self.source = source
        self._tree = tree
        #: line -> rule names that ``# repro: allow-<rule>`` comments cover.
        self.suppressions: dict[int, set[str]] = suppressions or {}

    @property
    def tree(self) -> ast.Module:
        if self._tree is None:
            self._tree = ast.parse(self.source, filename=str(self.path))
        return self._tree

    @property
    def is_parsed(self) -> bool:
        return self._tree is not None

    @property
    def is_package_init(self) -> bool:
        return self.relpath.endswith("__init__.py")

    @property
    def dotted_name(self) -> str:
        """``repro/sim/__init__.py`` -> ``repro.sim``; modules keep stems."""
        parts = self.relpath[: -len(".py")].split("/")
        if parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)


class ProjectContext:
    """All modules of one scan, plus where the repository itself lives."""

    def __init__(self, root: Path, modules: list[ModuleContext],
                 repo_root: Path | None = None,
                 index: "ProjectIndex | None" = None) -> None:
        #: The scan root the relpaths hang off (typically ``src``).
        self.root = root
        self.modules = modules
        #: Directory containing ``pyproject.toml``; None when scanning a bare
        #: fixture tree, which disables the repo-level (docs/tests) checks.
        self.repo_root = repo_root
        #: Pass-1 whole-program index; always present after engine builds.
        self.index = index

    def package_inits(self) -> Iterator[ModuleContext]:
        for module in self.modules:
            if module.is_package_init:
                yield module

    def module_at(self, relpath: str) -> ModuleContext | None:
        for module in self.modules:
            if module.relpath == relpath or \
                    module.relpath.endswith("/" + relpath):
                return module
        return None


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
