"""Intraprocedural data-flow analysis: CFG, tag lattice, global access.

The R1 and R3 rules see *occurrences* -- a call here, a comparison there.
R10 and R11 need to know how values *flow*: which names hold a Generator
when a loop body draws from it, and which module globals a
worker-reachable function touches.  This module supplies the shared
machinery:

* :func:`build_cfg` -- a statement-level control-flow graph per function
  (compound statements contribute their *header* -- test, iterator,
  context expression -- as a CFG statement; their bodies become successor
  blocks, with back edges for loops and conservative edges for ``try``).
* :class:`TagFlow` -- a small abstract-value lattice (sets of
  :data:`TAG_RNG` / :data:`TAG_UNORDERED` tags, joined by union at CFG
  merge points) propagated through assignments, containers and calls.
  ``sorted(...)`` launders the unordered tag; ``list(...)``/``tuple(...)``
  keep it (materializing a set does not order it).
* :func:`global_access` -- per-function reads/writes of module-level
  names, the summaries the fork-safety rule (R11) aggregates over the
  call graph.

Everything here is deliberately conservative in the direction each client
rule needs: tag sets over-approximate (more flow reported than real), so
a *hazard* finding rests on provable flow, while the absence of a tag
never fires anything.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Sequence

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
# control-flow graph

@dataclass
class Block:
    """One basic block: CFG-statement ids plus successor block ids."""

    id: int
    stmts: list[int] = field(default_factory=list)
    succs: set[int] = field(default_factory=set)


@dataclass
class ControlFlowGraph:
    """Statement-level CFG of one function body."""

    blocks: list[Block] = field(default_factory=list)
    #: CFG-statement id -> the AST statement it stands for.
    stmts: list[ast.stmt] = field(default_factory=list)

    def new_block(self) -> Block:
        block = Block(id=len(self.blocks))
        self.blocks.append(block)
        return block

    def preds(self) -> dict[int, set[int]]:
        incoming: dict[int, set[int]] = {b.id: set() for b in self.blocks}
        for block in self.blocks:
            for succ in block.succs:
                incoming[succ].add(block.id)
        return incoming


_TERMINATORS = (ast.Return, ast.Raise, ast.Break, ast.Continue)


class _CFGBuilder:
    def __init__(self) -> None:
        self.cfg = ControlFlowGraph()
        self.current = self.cfg.new_block()
        #: (loop header block id, loop exit block id) innermost-last.
        self.loops: list[tuple[int, int]] = []

    def _add(self, node: ast.stmt) -> int:
        stmt_id = len(self.cfg.stmts)
        self.cfg.stmts.append(node)
        self.current.stmts.append(stmt_id)
        return stmt_id

    def _edge(self, source: int, target: int) -> None:
        self.cfg.blocks[source].succs.add(target)

    def _start_block(self, *preds: int) -> Block:
        block = self.cfg.new_block()
        for pred in preds:
            self._edge(pred, block.id)
        return block

    def build(self, body: Sequence[ast.stmt]) -> ControlFlowGraph:
        self._body(body)
        return self.cfg

    def _body(self, body: Sequence[ast.stmt]) -> None:
        for node in body:
            self._stmt(node)

    def _stmt(self, node: ast.stmt) -> None:
        if isinstance(node, ast.If):
            self._if(node)
        elif isinstance(node, (ast.While, ast.For, ast.AsyncFor)):
            self._loop(node)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            self._add(node)
            self._body(node.body)
        elif isinstance(node, ast.Try):
            self._try(node)
        elif isinstance(node, ast.Match):
            self._match(node)
        else:
            self._add(node)
            if isinstance(node, _TERMINATORS):
                self._terminate(node)

    def _terminate(self, node: ast.stmt) -> None:
        if isinstance(node, ast.Break) and self.loops:
            self._edge(self.current.id, self.loops[-1][1])
        elif isinstance(node, ast.Continue) and self.loops:
            self._edge(self.current.id, self.loops[-1][0])
        # Whatever lexically follows is unreachable from here; give it a
        # fresh predecessor-less block so defs do not leak across.
        self.current = self.cfg.new_block()

    def _if(self, node: ast.If) -> None:
        self._add(node)
        header = self.current.id
        self.current = self._start_block(header)
        self._body(node.body)
        then_exit = self.current.id
        if node.orelse:
            self.current = self._start_block(header)
            self._body(node.orelse)
            else_exit = self.current.id
            self.current = self._start_block(then_exit, else_exit)
        else:
            self.current = self._start_block(then_exit, header)

    def _loop(self, node: ast.While | ast.For | ast.AsyncFor) -> None:
        entry = self.current.id
        header = self._start_block(entry)
        self.current = header
        self._add(node)
        exit_block = self.cfg.new_block()
        body_entry = self._start_block(header.id)
        if not node.orelse:
            # With an ``else`` clause the *only* normal exit runs through
            # it (header -> else -> exit); ``break`` still edges straight
            # to the exit block, correctly bypassing the else body.
            self._edge(header.id, exit_block.id)
        self.loops.append((header.id, exit_block.id))
        self.current = body_entry
        self._body(node.body)
        self._edge(self.current.id, header.id)  # back edge
        self.loops.pop()
        if node.orelse:
            self.current = self._start_block(header.id)
            self._body(node.orelse)
            self._edge(self.current.id, exit_block.id)
        self.current = exit_block

    def _try(self, node: ast.Try) -> None:
        entry = self.current.id
        self.current = self._start_block(entry)
        self._body(node.body)
        body_exit = self.current.id
        exits = [body_exit]
        for handler in node.handlers:
            # Conservative: an exception may fire before or after any
            # statement of the body, so the handler sees defs from both
            # the entry and the body's end.
            self.current = self._start_block(entry, body_exit)
            self._body(handler.body)
            exits.append(self.current.id)
        if node.orelse:
            self.current = self._start_block(body_exit)
            self._body(node.orelse)
            exits[0] = self.current.id
        self.current = self._start_block(*exits)
        if node.finalbody:
            self._body(node.finalbody)

    def _match(self, node: ast.Match) -> None:
        self._add(node)
        header = self.current.id
        exits = [header]  # no case may match
        for case in node.cases:
            self.current = self._start_block(header)
            self._body(case.body)
            exits.append(self.current.id)
        self.current = self._start_block(*exits)


def build_cfg(body: Sequence[ast.stmt]) -> ControlFlowGraph:
    """Statement-level CFG of a function body (or any statement list)."""
    return _CFGBuilder().build(body)


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


_COMPOUND = (ast.If, ast.While, ast.For, ast.AsyncFor, ast.With,
             ast.AsyncWith, ast.Try, ast.Match, ast.FunctionDef,
             ast.AsyncFunctionDef, ast.ClassDef)


def stmt_use_exprs(node: ast.stmt) -> list[ast.expr]:
    """Expressions evaluated by this CFG statement (bodies excluded)."""
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


class TagFlow:
    """Fixpoint tag propagation over a function's CFG.

    ``at(stmt)`` returns the name -> tags environment holding when the
    given AST statement starts executing (keyed by object identity, so
    callers walk the same tree they analyzed).
    """

    def __init__(self, func: ast.FunctionDef | ast.AsyncFunctionDef
                 ) -> None:
        self.cfg = build_cfg(func.body)
        self._entry_env = seed_param_tags(func)
        self._at: dict[int, dict[str, Tags]] = {}
        self._solve()

    def at(self, stmt: ast.stmt) -> dict[str, Tags]:
        return self._at.get(id(stmt), {})

    def _solve(self) -> None:
        block_in: dict[int, dict[str, Tags]] = {
            block.id: {} for block in self.cfg.blocks}
        block_in[0] = dict(self._entry_env)
        preds = self.cfg.preds()
        changed = True
        while changed:
            changed = False
            for block in self.cfg.blocks:
                envs = [self._transfer_block(p, block_in)
                        for p in sorted(preds[block.id])]
                if block.id == 0:
                    envs.append(dict(self._entry_env))
                env = _join_tags(envs or [{}])
                if env != block_in[block.id]:
                    block_in[block.id] = env
                    changed = True
        for block in self.cfg.blocks:
            env = dict(block_in[block.id])
            for stmt_id in block.stmts:
                node = self.cfg.stmts[stmt_id]
                self._at[id(node)] = dict(env)
                self._transfer_stmt(node, env)

    def _transfer_block(self, block_id: int,
                        block_in: dict[int, dict[str, Tags]]
                        ) -> dict[str, Tags]:
        env = dict(block_in[block_id])
        for stmt_id in self.cfg.blocks[block_id].stmts:
            self._transfer_stmt(self.cfg.stmts[stmt_id], env)
        return env

    def _transfer_stmt(self, node: ast.stmt,
                       env: dict[str, Tags]) -> None:
        if isinstance(node, ast.Assign):
            tags = tags_of_expr(node.value, env)
            for target in node.targets:
                for name in _target_names(target):
                    env[name] = tags
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            for name in _target_names(node.target):
                env[name] = tags_of_expr(node.value, env)
        elif isinstance(node, ast.AugAssign):
            extra = tags_of_expr(node.value, env)
            for name in _target_names(node.target):
                env[name] = env.get(name, frozenset()) | extra
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            tags = tags_of_expr(node.iter, env)
            for name in _target_names(node.target):
                env[name] = tags
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is None:
                    continue
                tags = tags_of_expr(item.context_expr, env)
                for name in _target_names(item.optional_vars):
                    env[name] = tags


def _join_tags(envs: Sequence[dict[str, Tags]]) -> dict[str, Tags]:
    joined: dict[str, Tags] = {}
    for env in envs:
        for name, tags in env.items():
            joined[name] = joined.get(name, frozenset()) | tags
    return joined


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
