"""The lint engine: discovery, pass-1 indexing (cached), pass-2 rules.

A run has two passes:

**Pass 1** touches every file independently: parse, scan suppressions, run
the per-module rules, build the module's
:class:`~repro.devtools.index.ModuleIndex`.  All of it depends only on the
file's bytes, so it is served from the on-disk cache
(:mod:`repro.devtools.cache`) when the content hash matches -- cache hits
skip parsing entirely (ASTs stay lazy).

**Pass 2** assembles the module indexes into a
:class:`~repro.devtools.index.ProjectIndex` and runs every rule's
``check_project`` -- the whole-program families (rng reachability,
experiment registry, fork-safety, kernel equivalence) plus the older
cross-file checks (protocol conformance, public API).

Afterwards the engine resolves ``# repro: allow-<rule>`` suppressions.

Typical use::

    from repro.devtools import LintEngine

    report = LintEngine().lint_paths(["src"])
    if not report.ok:
        ...

Suppressions are line-scoped comments of the form::

    risky_line()  # repro: allow-float-equality -- rationale

    # repro: allow-mutable-default -- rationale
    def helper(cache={}): ...

A trailing comment covers its own line; a comment alone on a line covers the
next line as well (so multi-line statements can be annotated above).  Several
rules can be allowed at once: ``# repro: allow-rule-a,rule-b``.
"""

from __future__ import annotations

import ast
import io
import re
import time
import tokenize
from pathlib import Path
from typing import Iterable, Sequence

from repro.devtools.cache import (
    CacheEntry,
    LintCache,
    cache_signature,
    content_digest,
    rule_sources_digest,
)
from repro.devtools.config import DEFAULT_CONFIG, LintConfig
from repro.devtools.findings import Finding, LintReport
from repro.devtools.index import ProjectIndex, build_module_index
from repro.devtools.rules import ModuleContext, ProjectContext, Rule, \
    create_rules

_SUPPRESS = re.compile(r"#\s*repro:\s*allow-([a-z0-9_,\-]+)")


def parse_suppressions(source: str) -> dict[int, set[str]]:
    """Map line number -> rule names allowed on that line."""
    allowed: dict[int, set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [(token.start[0], token.start[1], token.string)
                    for token in tokens if token.type == tokenize.COMMENT]
    except tokenize.TokenizeError:
        return allowed
    lines = source.splitlines()
    for line, column, text in comments:
        match = _SUPPRESS.search(text)
        if match is None:
            continue
        rules = {name.strip() for name in match.group(1).split(",")
                 if name.strip()}
        targets = [line]
        prefix = lines[line - 1][:column] if line - 1 < len(lines) else ""
        if not prefix.strip():
            targets.append(line + 1)  # standalone comment covers next line
        for target in targets:
            allowed.setdefault(target, set()).update(rules)
    return allowed


def normalize_suppression_spans(allowed: dict[int, set[str]],
                                tree: ast.Module) -> dict[int, set[str]]:
    """Extend suppressions over each statement's full span.

    Rules anchor findings at a statement's ``lineno`` -- which for a
    decorated ``def``/``class`` is the ``def`` line, *below* the
    decorators.  A suppression comment on (or just above) a decorator line
    used to miss such findings entirely.  Here every suppression landing
    anywhere inside a statement's header span (first decorator line
    through the anchor line) is mirrored onto the anchor line, so "the
    comment covers the statement it annotates" holds regardless of
    decorators or signature wrapping.
    """
    if not allowed:
        return allowed
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        start = min((decorator.lineno for decorator in node.decorator_list),
                    default=node.lineno)
        if start == node.lineno:
            continue
        span_rules = set()
        for line in range(start, node.lineno):
            span_rules.update(allowed.get(line, ()))
        if span_rules:
            allowed.setdefault(node.lineno, set()).update(span_rules)
    return allowed


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
                 select: Iterable[str] = (),
                 cache_path: Path | None = None) -> None:
        self.config = config or DEFAULT_CONFIG
        self.rules: list[Rule] = create_rules(select)
        self.cache: LintCache | None = None
        if cache_path is not None:
            signature = cache_signature(
                repr(self.config),
                tuple(rule.name for rule in self.rules),
                rule_sources_digest(self.rules))
            self.cache = LintCache(cache_path, signature)

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

    def _load_one(self, path: Path, relpath: str) -> tuple[
            ModuleContext | None, CacheEntry | None, Finding | None]:
        """Pass-1 work for one file: cached replay or a fresh build."""
        source = path.read_text(encoding="utf-8")
        digest = content_digest(source)
        if self.cache is not None:
            cached = self.cache.lookup(relpath, digest)
            if cached is not None:
                module = ModuleContext(path=path, relpath=relpath,
                                       source=source,
                                       suppressions=cached.suppressions)
                return module, cached, None
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as error:
            return None, None, Finding(
                path=relpath, line=error.lineno or 1, rule="parse-error",
                message=f"cannot parse: {error.msg}")
        suppressions = normalize_suppression_spans(
            parse_suppressions(source), tree)
        module = ModuleContext(path=path, relpath=relpath, source=source,
                               tree=tree, suppressions=suppressions)
        module_findings = [
            finding
            for rule in self.rules
            for finding in rule.check_module(module, self.config)]
        entry = CacheEntry(
            digest=digest, findings=module_findings,
            suppressions=module.suppressions,
            index=build_module_index(module.dotted_name, relpath, tree))
        if self.cache is not None:
            self.cache.store(relpath, entry)
        return module, entry, None

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
            module, entry, error = self._load_one(path, relpath)
            if error is not None:
                findings.append(error)
                continue
            assert module is not None and entry is not None
            modules.append(module)
            findings.extend(entry.findings)
            records.append(entry.index)
        repo_root = find_repo_root(scan_root.resolve())
        project = ProjectContext(root=scan_root, modules=modules,
                                 repo_root=repo_root,
                                 index=ProjectIndex(records))
        return project, findings

    # -- pass 2 and assembly -----------------------------------------------

    def lint_paths(self, paths: Sequence[str | Path]) -> LintReport:
        started = time.perf_counter()
        project, findings = self.build_project(paths)
        index_seconds = time.perf_counter() - started
        for rule in self.rules:
            findings.extend(rule.check_project(project, self.config))
        report = self._resolve(project, findings)
        report.index_seconds = index_seconds
        if self.cache is not None:
            report.cache_hits = self.cache.hits
            report.cache_misses = self.cache.misses
            self.cache.save()
        return report

    def _resolve(self, project: ProjectContext,
                 findings: list[Finding]) -> LintReport:
        suppressions = {module.relpath: module.suppressions
                        for module in project.modules}
        resolved = []
        for finding in findings:
            allowed = suppressions.get(finding.path, {}).get(finding.line, ())
            resolved.append(finding.as_suppressed()
                            if finding.rule in allowed else finding)
        return LintReport(findings=sorted(resolved),
                          modules_checked=len(project.modules),
                          rules_run=tuple(rule.name for rule in self.rules))

