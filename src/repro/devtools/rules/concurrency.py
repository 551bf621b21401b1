"""R10/R11 -- RNG order-sensitivity and fork-safety.

Both rules guard the parallel==serial bit-identity contract of the sweep
executor, from two directions.

**R10 (``rng-order``)** is per-function data-flow: values minted by
``default_rng``/``rng_from_seed``/``spawn_run_seeds`` are tracked through
the function's one tag map (:func:`repro.devtools.dataflow.tag_map`), and
a *draw* (any method call on a receiver that may be RNG-tagged) is flagged
when its execution count or order depends on something that may be
unordered -- iteration over a ``set`` or dict view, or a loop bounded by a
float-equality comparison.  The map is flow-insensitive: a name that is
*ever* bound to a set counts as unordered everywhere in the function, so
``names = sorted(names)`` does not launder ``names`` -- bind the sorted
list to a new name.  A Generator stored in a module global is flagged
outright: its draw position becomes shared mutable state between call
sites.

**R11 (``fork-safety``)** is whole-program: every function reachable from
a worker entry point (``LintConfig.worker_roots``) runs on the far side of
a ``multiprocessing`` fork, where module globals are silently *copied*.  A
worker that writes one mutates its private copy -- the parent never sees
it, and results must instead flow back through ``ChunkOutcome``.  The rule
flags worker-reachable writes to module globals and reads of module-level
OS handles (open files, locks: shared kernel state that must not cross the
fork).  Audited globals are allow-listed in
``LintConfig.fork_safe_globals``.  Call-graph reachability is name-based
and over-approximate: a receiver call that no import resolves reaches
every method of that name, whatever the receiver's type (``self`` and
``cls`` included, so subclass overrides are reached).  That is the
conservative direction here: nothing that truly runs in a worker escapes
the audit.
"""

from __future__ import annotations

import ast
from collections import deque
from typing import Iterable, Iterator

from repro.devtools.config import LintConfig
from repro.devtools.dataflow import (
    TAG_RNG,
    TAG_UNORDERED,
    stmt_use_exprs,
    tag_map,
    tags_of_expr,
)
from repro.devtools.findings import Finding
from repro.devtools.index import ProjectIndex
from repro.devtools.rules.base import ModuleContext, ProjectContext, Rule
from repro.devtools.rules.registry import register

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _float_compare(test: ast.expr) -> bool:
    """Does ``test`` hinge on ``==``/``!=`` against a float literal?"""
    for node in ast.walk(test):
        if not isinstance(node, ast.Compare):
            continue
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            continue
        operands = [node.left, *node.comparators]
        if any(isinstance(operand, ast.Constant)
               and isinstance(operand.value, float)
               for operand in operands):
            return True
    return False


@register
class RngOrderSensitivity(Rule):
    """RNG draws must not depend on unordered iteration or float tests."""

    name = "rng-order"
    description = ("an RNG draw inside iteration over a set/dict view (or "
                   "a float-equality-bounded loop), or a Generator stored "
                   "in a module global, makes the draw sequence depend on "
                   "incidental ordering and breaks parallel==serial "
                   "bit-identity")

    def check_module(self, module: ModuleContext,
                     config: LintConfig) -> Iterable[Finding]:
        tree = module.tree
        yield from self._module_globals(module, tree)
        for func in ast.walk(tree):
            if isinstance(func, _FUNCTIONS):
                yield from self._check_function(module, func)

    # -- module-scope Generators -------------------------------------------

    def _module_globals(self, module: ModuleContext,
                        tree: ast.Module) -> Iterator[Finding]:
        env: dict[str, frozenset] = {}
        for node in tree.body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            value = node.value
            if value is None:
                continue
            tags = tags_of_expr(value, env)
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    env[target.id] = tags
                    if TAG_RNG in tags:
                        yield self.finding(
                            module, node.lineno,
                            f"Generator stored in module global "
                            f"`{target.id}`: its draw position becomes "
                            "shared mutable state across call sites; mint "
                            "per run via rng_from_seed and pass it down")

    # -- per-function hazards ----------------------------------------------

    def _check_function(self, module: ModuleContext,
                        func: ast.FunctionDef | ast.AsyncFunctionDef
                        ) -> Iterator[Finding]:
        env = tag_map(func)
        declared_global: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
        yield from self._walk(module, func.body, env, hazards=[],
                              declared_global=declared_global)

    def _walk(self, module: ModuleContext, body: list[ast.stmt],
              env: dict, hazards: list[str],
              declared_global: set[str]) -> Iterator[Finding]:
        for stmt in body:
            if isinstance(stmt, _FUNCTIONS):
                continue  # nested defs get their own tag map
            yield from self._draws_in_stmt(module, stmt, env, hazards)
            yield from self._global_rng_store(module, stmt, env,
                                              declared_global)
            pushed = self._hazard_of(stmt, env)
            if pushed is not None:
                hazards.append(pushed)
            for child_body in self._bodies(stmt):
                yield from self._walk(module, child_body, env, hazards,
                                      declared_global)
            if pushed is not None:
                hazards.pop()

    @staticmethod
    def _bodies(stmt: ast.stmt) -> Iterator[list[ast.stmt]]:
        for attr in ("body", "orelse", "finalbody"):
            body = getattr(stmt, attr, None)
            if isinstance(body, list) and body \
                    and isinstance(body[0], ast.stmt):
                yield body
        for handler in getattr(stmt, "handlers", []):
            yield handler.body
        for case in getattr(stmt, "cases", []):
            yield case.body

    @staticmethod
    def _hazard_of(stmt: ast.stmt, env: dict) -> str | None:
        if isinstance(stmt, (ast.For, ast.AsyncFor)) \
                and TAG_UNORDERED in tags_of_expr(stmt.iter, env):
            return "inside iteration over an unordered set/dict view"
        if isinstance(stmt, (ast.While, ast.If)) \
                and _float_compare(stmt.test):
            return ("under a float-equality comparison, so the draw count "
                    "depends on rounding")
        return None

    def _draws_in_stmt(self, module: ModuleContext, stmt: ast.stmt,
                       env: dict, hazards: list[str]) -> Iterator[Finding]:
        if not hazards:
            return
        for expr in stmt_use_exprs(stmt):
            for node in ast.walk(expr):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)):
                    continue
                receiver_tags = tags_of_expr(node.func.value, env)
                if TAG_RNG in receiver_tags:
                    yield self.finding(
                        module, node.lineno,
                        f"RNG draw `.{node.func.attr}(...)` {hazards[-1]}; "
                        "iterate a sorted/ordered sequence so every run "
                        "consumes draws in the same order")

    def _global_rng_store(self, module: ModuleContext, stmt: ast.stmt,
                          env: dict, declared_global: set[str]
                          ) -> Iterator[Finding]:
        if not declared_global or not isinstance(stmt, ast.Assign):
            return
        tags = tags_of_expr(stmt.value, env)
        if TAG_RNG not in tags:
            return
        for target in stmt.targets:
            if isinstance(target, ast.Name) \
                    and target.id in declared_global:
                yield self.finding(
                    module, stmt.lineno,
                    f"Generator rebound into module global `{target.id}` "
                    "(via a `global` declaration): draw order now depends "
                    "on call history; pass the Generator explicitly")


@register
class ForkSafety(Rule):
    """Worker-reachable code must not rely on module globals or handles."""

    name = "fork-safety"
    description = ("a function reachable from a pool worker entry point "
                   "that writes a module global (the parent never sees the "
                   "write) or reads a module-level OS handle (shared "
                   "kernel state across the fork) silently diverges from "
                   "the serial path; return state via ChunkOutcome or "
                   "allow-list it in LintConfig.fork_safe_globals")

    def check_project(self, project: ProjectContext,
                      config: LintConfig) -> Iterable[Finding]:
        index = project.index
        if index is None:
            return
        roots = {root for root in config.worker_roots
                 if self._resolves(index, root)}
        if not roots:
            return
        reachable = self._reachable(index, roots)
        audited = set(config.fork_safe_globals)
        for module, function in index.all_functions():
            path = f"{module.dotted}:{function.qualname}"
            if path not in reachable:
                continue
            handles = set(module.handle_globals)
            for name, line, how in function.global_writes:
                if f"{module.dotted}:{name}" in audited:
                    continue
                verb = {"rebind": "rebinds", "mutate": "mutates in place",
                        "store": "stores into"}.get(how, "writes")
                yield self.finding(
                    module.relpath, line,
                    f"worker-reachable `{function.qualname}` {verb} module "
                    f"global `{name}`: after the fork this mutates a "
                    "worker-private copy the parent never observes; return "
                    "the state through ChunkOutcome and merge it in the "
                    "parent, or audit it in LintConfig.fork_safe_globals")
            for name, line in function.global_reads:
                if name not in handles \
                        or f"{module.dotted}:{name}" in audited:
                    continue
                yield self.finding(
                    module.relpath, line,
                    f"worker-reachable `{function.qualname}` uses module-"
                    f"level handle `{name}` (file/lock/queue): handles "
                    "duplicated across a fork share kernel state and "
                    "corrupt on concurrent use; open per worker instead")

    @staticmethod
    def _resolves(index: ProjectIndex, root: str) -> bool:
        dotted, _, qualname = root.partition(":")
        module = index.modules.get(dotted)
        return module is not None and qualname in module.functions

    @staticmethod
    def _reachable(index: ProjectIndex, roots: set[str]) -> set[str]:
        edges = index.call_graph()
        seen = set(roots)
        queue = deque(roots)
        while queue:
            source = queue.popleft()
            for target in edges.get(source, ()):
                if target not in seen:
                    seen.add(target)
                    queue.append(target)
        return seen
