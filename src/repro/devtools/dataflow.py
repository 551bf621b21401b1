"""Intraprocedural data-flow analysis: tag map, global access.

The R1 and R3 rules see *occurrences* -- a call here, a comparison there.
R10 and R11 need to know how values *flow*: which names hold a Generator
when a loop body draws from it, and which module globals a
worker-reachable function touches.  This module supplies the shared
machinery:

* :func:`tag_map` -- one flow-insensitive map per function from each name
  to a set of :data:`TAG_RNG` / :data:`TAG_UNORDERED` tags: every binding
  of the name (assignment, augmented assignment, ``for`` or ``with``
  target) unions its value's tags into the name's entry.  Tags propagate
  through containers and calls; ``sorted(...)`` launders the unordered
  tag; ``list(...)``/``tuple(...)`` keep it (materializing a set does not
  order it).
* :func:`global_access` -- per-function reads/writes of module-level
  names, the summaries the fork-safety rule (R11) aggregates over the
  call graph.

Everything here is deliberately conservative in the direction each client
rule needs: a name's tags cover every value any path could bind to it
(more flow reported than real), while the absence of a tag never fires
anything.
"""

from __future__ import annotations

import ast
from typing import Iterator

TAG_RNG = "rng"
TAG_UNORDERED = "unordered"

#: Call tails that mint RNG-tagged values (Generators, SeedSequences and
#: their spawned children all carry draw-order state).
_RNG_SOURCES = {"default_rng", "rng_from_seed", "spawn_run_seeds",
                "SeedSequence", "spawn"}
#: Call tails that produce unordered containers or views.
_UNORDERED_SOURCES = {"set", "frozenset", "keys", "values", "items"}
#: Call tails that impose an order on their argument (launder the tag).
_ORDERING_CALLS = {"sorted"}
#: Call tails that materialize without ordering (the tag survives).
_TRANSPARENT_CALLS = {"list", "tuple", "iter", "reversed", "enumerate"}

#: Generator-typed annotations that seed the RNG tag on parameters.
_RNG_ANNOTATIONS = ("Generator", "SeedSequence")


# ---------------------------------------------------------------------------
# per-statement defs and uses

def _target_names(target: ast.expr) -> Iterator[str]:
    # Only Store-context names are bindings: in ``x[k] = v`` or
    # ``x.attr = v`` the inner ``x`` is *read* (Load), not rebound, so it
    # must count as neither a def nor a locally bound name.
    for node in ast.walk(target):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id


def stmt_defs(node: ast.stmt) -> list[str]:
    """Names this statement (re)binds -- header-only for compound stmts."""
    if isinstance(node, ast.Assign):
        return [name for target in node.targets
                for name in _target_names(target)]
    if isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        return list(_target_names(node.target))
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return list(_target_names(node.target))
    if isinstance(node, (ast.With, ast.AsyncWith)):
        return [name for item in node.items if item.optional_vars
                for name in _target_names(item.optional_vars)]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [(alias.asname or alias.name.split(".")[0])
                for alias in node.names]
    return []


def _header_exprs(node: ast.stmt) -> list[ast.expr]:
    """The expressions a compound statement evaluates *itself*."""
    if isinstance(node, (ast.If, ast.While)):
        return [node.test]
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return [node.iter]
    if isinstance(node, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in node.items]
    if isinstance(node, ast.Match):
        return [node.subject]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        exprs: list[ast.expr] = list(node.decorator_list)
        exprs.extend(d for d in node.args.defaults)
        exprs.extend(d for d in node.args.kw_defaults if d is not None)
        return exprs
    if isinstance(node, ast.ClassDef):
        return [*node.decorator_list, *node.bases]
    return []


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_COMPOUND = (ast.If, ast.While, ast.For, ast.AsyncFor, ast.With,
             ast.AsyncWith, ast.Try, ast.Match, *_SCOPES)


def stmt_use_exprs(node: ast.stmt) -> list[ast.expr]:
    """Expressions evaluated by this statement (bodies excluded)."""
    if isinstance(node, _COMPOUND):
        return _header_exprs(node)
    return [child for child in ast.iter_child_nodes(node)
            if isinstance(child, ast.expr)]


# ---------------------------------------------------------------------------
# tag lattice

Tags = frozenset


def tags_of_expr(node: ast.expr, env: dict[str, Tags]) -> Tags:
    """Abstract tags of an expression under ``env`` (bottom = empty set)."""
    if isinstance(node, ast.Name):
        return env.get(node.id, frozenset())
    if isinstance(node, ast.Call):
        return _call_tags(node, env)
    if isinstance(node, (ast.Set, ast.SetComp)):
        return frozenset([TAG_UNORDERED])
    if isinstance(node, ast.DictComp):
        return frozenset([TAG_UNORDERED]) \
            | tags_of_expr(node.generators[0].iter, env)
    if isinstance(node, ast.GeneratorExp):
        return tags_of_expr(node.generators[0].iter, env)
    if isinstance(node, (ast.Subscript, ast.Starred)):
        return tags_of_expr(node.value, env)
    if isinstance(node, ast.Attribute):
        base = tags_of_expr(node.value, env)
        if node.attr == "rng":  # ``self.rng`` by naming convention
            return base | frozenset([TAG_RNG])
        return base
    if isinstance(node, (ast.Tuple, ast.List)):
        tags: Tags = frozenset()
        for element in node.elts:
            tags |= tags_of_expr(element, env)
        return tags
    if isinstance(node, ast.IfExp):
        return tags_of_expr(node.body, env) \
            | tags_of_expr(node.orelse, env)
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)):
        # Set algebra keeps the unordered tag (``a | b``, ``a - b``).
        combined = tags_of_expr(node.left, env) \
            | tags_of_expr(node.right, env)
        return combined & frozenset([TAG_UNORDERED])
    if isinstance(node, ast.NamedExpr):
        return tags_of_expr(node.value, env)
    return frozenset()


def _call_tags(node: ast.Call, env: dict[str, Tags]) -> Tags:
    func = node.func
    tail = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None)
    if tail is None:
        return frozenset()
    if tail in _RNG_SOURCES:
        return frozenset([TAG_RNG])
    if tail in _ORDERING_CALLS:
        return frozenset()
    if tail in _UNORDERED_SOURCES:
        if tail in ("set", "frozenset") or isinstance(func, ast.Attribute):
            return frozenset([TAG_UNORDERED])
        return frozenset()
    if tail in _TRANSPARENT_CALLS:
        if node.args:
            return tags_of_expr(node.args[0], env)
        return frozenset()
    return frozenset()


def seed_param_tags(func: ast.FunctionDef | ast.AsyncFunctionDef
                    ) -> dict[str, Tags]:
    """Initial tag environment: parameters that carry RNG state."""
    env: dict[str, Tags] = {}
    for arg in [*func.args.posonlyargs, *func.args.args,
                *func.args.kwonlyargs]:
        annotation = ast.unparse(arg.annotation) \
            if arg.annotation is not None else ""
        if arg.arg == "rng" or any(marker in annotation
                                   for marker in _RNG_ANNOTATIONS):
            env[arg.arg] = frozenset([TAG_RNG])
    return env


def _own_statements(node: ast.AST) -> Iterator[ast.stmt]:
    """Statements of ``node``'s body at any depth, nested scopes excluded."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.stmt):
            yield child
            if not isinstance(child, _SCOPES):
                yield from _own_statements(child)
        elif isinstance(child, (ast.excepthandler, ast.match_case)):
            yield from _own_statements(child)


def _bindings(node: ast.stmt) -> list[tuple[ast.expr, ast.expr]]:
    """``(target, value)`` pairs a statement binds tags through."""
    if isinstance(node, ast.Assign):
        return [(target, node.value) for target in node.targets]
    if isinstance(node, (ast.AnnAssign, ast.AugAssign)) \
            and node.value is not None:
        return [(node.target, node.value)]
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return [(node.target, node.iter)]
    if isinstance(node, (ast.With, ast.AsyncWith)):
        return [(item.optional_vars, item.context_expr)
                for item in node.items if item.optional_vars is not None]
    return []


def tag_map(func: ast.FunctionDef | ast.AsyncFunctionDef
            ) -> dict[str, Tags]:
    """One flow-insensitive name -> tags map for a whole function.

    Every binding of a name unions its value's tags into the name's one
    entry, iterated to a fixpoint over the function's own statements
    (nested defs get their own map).  The map holds every tag any path
    could give the name anywhere in the body.
    """
    env = seed_param_tags(func)
    bindings = [pair for node in _own_statements(func)
                for pair in _bindings(node)]
    changed = True
    while changed:
        changed = False
        for target, value in bindings:
            tags = tags_of_expr(value, env)
            for name in _target_names(target):
                held = env.get(name, frozenset())
                if not tags <= held:
                    env[name] = held | tags
                    changed = True
    return env


# ---------------------------------------------------------------------------
# module-global access summaries (for R11)

#: Method names that mutate their receiver in place.
_MUTATOR_METHODS = {"append", "extend", "insert", "remove", "pop", "clear",
                    "add", "discard", "update", "setdefault", "popitem",
                    "sort", "reverse", "write", "writelines", "acquire",
                    "release"}


def _local_names(func: ast.FunctionDef | ast.AsyncFunctionDef
                 ) -> tuple[set[str], set[str]]:
    """(locally bound names, names declared ``global``) of a function."""
    bound: set[str] = {arg.arg for arg in [
        *func.args.posonlyargs, *func.args.args, *func.args.kwonlyargs]}
    for extra in (func.args.vararg, func.args.kwarg):
        if extra is not None:
            bound.add(extra.arg)
    declared_global: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.stmt):
            bound.update(stmt_defs(node))
        elif isinstance(node, ast.comprehension):
            bound.update(_target_names(node.target))
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, ast.NamedExpr):
            bound.update(_target_names(node.target))
    return bound - declared_global, declared_global


def global_access(func: ast.FunctionDef | ast.AsyncFunctionDef,
                  module_globals: set[str]
                  ) -> tuple[list[tuple[str, int]],
                             list[tuple[str, int, str]]]:
    """``(reads, writes)`` of module-level names inside one function.

    ``module_globals`` is the set of names *assigned* at module scope
    (imports and defs excluded by the caller).  Reads are ``(name, line)``;
    writes are ``(name, line, how)`` with ``how`` one of ``rebind``
    (assignment under a ``global`` declaration), ``mutate`` (an in-place
    mutator method call) or ``store`` (subscript/attribute store).
    Nested functions fold into their parent, matching the index's
    call-record convention.
    """
    locals_, declared_global = _local_names(func)
    reads: list[tuple[str, int]] = []
    writes: list[tuple[str, int, str]] = []

    def is_global(name: str) -> bool:
        return name in module_globals and name not in locals_

    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                and is_global(node.id):
            reads.append((node.id, node.lineno))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) \
                and node.id in declared_global \
                and node.id in module_globals:
            writes.append((node.id, node.lineno, "rebind"))
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _MUTATOR_METHODS \
                and isinstance(node.func.value, ast.Name) \
                and is_global(node.func.value.id):
            writes.append((node.func.value.id, node.lineno, "mutate"))
        elif isinstance(node, (ast.Subscript, ast.Attribute)) \
                and isinstance(node.ctx, (ast.Store, ast.Del)) \
                and isinstance(node.value, ast.Name) \
                and is_global(node.value.id):
            writes.append((node.value.id, node.lineno, "store"))
    reads.sort(key=lambda entry: (entry[1], entry[0]))
    writes.sort(key=lambda entry: (entry[1], entry[0]))
    return reads, writes
