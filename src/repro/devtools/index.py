"""Pass 1 of the whole-program analyzer: the project index.

For every module the engine builds a :class:`ModuleIndex` -- import aliases,
class names, module-level OS handles and a :class:`FunctionInfo` per
function or method holding every call it makes (callee as written) and its
module-global reads and writes.

:class:`ProjectIndex` assembles the per-module records into whole-program
structure: a global function table, alias-aware call resolution and the
call graph the fork-safety rule walks.  A receiver call that no import
resolves (``timing.session_seconds()``, whatever ``timing`` is annotated
as) matches every method of that name -- the classic cheap-call-graph
move, which over-approximates every typed resolution.  ``self.m()`` does
too, so a subclass's override of ``m`` is reached.

Nested functions are folded into their enclosing function: their calls
count as the parent's, so closures do not break the call graph.  Imports
inside a function body bind aliases of that function, which shadow the
module's own: a worker that imports its kernel at call time still reaches
it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.devtools.dataflow import global_access

# ---------------------------------------------------------------------------
# per-module records

@dataclass
class CallInfo:
    """One call site inside a function."""

    raw: str  # the callee as written, e.g. ``self.transmission_time``
    lineno: int


@dataclass
class FunctionInfo:
    """One function/method (or the synthetic dataclass constructor)."""

    qualname: str  # ``func`` or ``Class.method`` within the module
    lineno: int
    calls: list[CallInfo] = field(default_factory=list)
    #: Module-global reads ``(name, line)`` inside this function.
    global_reads: list[tuple[str, int]] = field(default_factory=list)
    #: Module-global writes ``(name, line, how)``; ``how`` is one of
    #: ``rebind``/``mutate``/``store`` (see dataflow.global_access).
    global_writes: list[tuple[str, int, str]] = field(default_factory=list)
    #: Import aliases bound inside the body (see ``ModuleIndex.aliases``).
    aliases: dict[str, str] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    @property
    def class_name(self) -> str | None:
        if "." in self.qualname:
            return self.qualname.split(".", 1)[0]
        return None


@dataclass
class ModuleIndex:
    """Everything pass 2 needs to know about one module."""

    dotted: str
    relpath: str
    #: local name -> imported dotted target (``np`` -> ``numpy``,
    #: ``RecordStore`` -> ``repro.core.collision.RecordStore``).
    aliases: dict[str, str] = field(default_factory=dict)
    #: functions and methods by qualname.
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: names of classes defined in this module.
    classes: tuple[str, ...] = ()
    #: module globals bound to OS handles (open files, locks, queues).
    handle_globals: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# building a module index

_DATACLASS_NAMES = ("dataclass",)


def _dotted(node: ast.expr) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _import_aliases(node: ast.stmt) -> Iterator[tuple[str, str]]:
    """``(local name, dotted target)`` pairs an import statement binds."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            if alias.asname:
                yield alias.asname, alias.name
            else:
                head = alias.name.split(".")[0]
                yield head, head
    elif isinstance(node, ast.ImportFrom) and node.module \
            and node.level == 0:
        for alias in node.names:
            if alias.name != "*":
                yield alias.asname or alias.name, \
                    f"{node.module}.{alias.name}"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        name = _dotted(target)
        if name and name.rsplit(".", 1)[-1] in _DATACLASS_NAMES:
            return True
    return False


#: Call tails whose module-level result is an OS handle a forked worker
#: must never inherit silently (files, locks, IPC primitives).
_HANDLE_CTORS = {"open", "Lock", "RLock", "Semaphore", "BoundedSemaphore",
                 "Condition", "Event", "Barrier", "Queue", "Pool",
                 "TemporaryFile", "NamedTemporaryFile", "socket"}


class _ModuleIndexer:
    def __init__(self, dotted: str, relpath: str) -> None:
        self.index = ModuleIndex(dotted=dotted, relpath=relpath)
        self.module_globals: set[str] = set()

    # -- entry -------------------------------------------------------------

    def _prescan_globals(self, tree: ast.Module) -> None:
        """Module-scope assigned names plus the handle-valued subset."""
        handles: list[str] = []
        for node in tree.body:
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            names = [name for target in targets
                     for sub in ast.walk(target)
                     if isinstance(sub, ast.Name)
                     for name in (sub.id,)]
            self.module_globals.update(names)
            value = getattr(node, "value", None)
            if names and isinstance(value, ast.Call):
                raw = _dotted(value.func)
                if raw and raw.rsplit(".", 1)[-1] in _HANDLE_CTORS:
                    handles.extend(names)
        self.index.handle_globals = tuple(sorted(set(handles)))

    def build(self, tree: ast.Module) -> ModuleIndex:
        self._prescan_globals(tree)
        classes: list[str] = []
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                self.index.aliases.update(_import_aliases(node))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(node, class_name=None)
            elif isinstance(node, ast.ClassDef):
                classes.append(node.name)
                self._index_class(node)
        self.index.classes = tuple(classes)
        return self.index

    # -- classes -----------------------------------------------------------

    def _index_class(self, node: ast.ClassDef) -> None:
        has_init = False
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if item.name == "__init__":
                    has_init = True
                self._index_function(item, class_name=node.name)
        if not has_init and _is_dataclass(node):
            # Synthetic constructor: `Class(...)` call sites resolve to it.
            self.index.functions[f"{node.name}.__init__"] = FunctionInfo(
                qualname=f"{node.name}.__init__", lineno=node.lineno)

    # -- functions ---------------------------------------------------------

    def _index_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef,
                        class_name: str | None) -> None:
        qualname = f"{class_name}.{node.name}" if class_name else node.name
        reads, writes = global_access(node, self.module_globals)
        info = FunctionInfo(
            qualname=qualname, lineno=node.lineno,
            global_reads=reads, global_writes=writes)
        for statement in node.body:
            self._collect_calls(statement, info)
            for sub in ast.walk(statement):
                if isinstance(sub, (ast.Import, ast.ImportFrom)):
                    info.aliases.update(_import_aliases(sub))
        self.index.functions[qualname] = info

    # -- call collection ---------------------------------------------------

    def _collect_calls(self, node: ast.AST, into: FunctionInfo) -> None:
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            raw = _dotted(call.func)
            if raw is None and isinstance(call.func, ast.Attribute) \
                    and isinstance(call.func.value, ast.Call):
                # ``Protocol().read_all(...)``: treat the constructor-call
                # receiver as the class, so the edge stays in the graph.
                receiver = _dotted(call.func.value.func)
                if receiver is not None:
                    raw = f"{receiver}.{call.func.attr}"
            if raw is None:
                continue
            into.calls.append(CallInfo(raw=raw, lineno=call.lineno))


def build_module_index(dotted: str, relpath: str,
                       tree: ast.Module) -> ModuleIndex:
    """Index one parsed module (pass 1 unit of work; cacheable)."""
    return _ModuleIndexer(dotted, relpath).build(tree)


# ---------------------------------------------------------------------------
# whole-program assembly

@dataclass
class Callee:
    """One resolved call target."""

    module: ModuleIndex
    function: FunctionInfo

    @property
    def path(self) -> str:
        return f"{self.module.dotted}:{self.function.qualname}"


class ProjectIndex:
    """Global lookup over every module index of one scan."""

    def __init__(self, modules: Sequence[ModuleIndex]) -> None:
        self.modules: dict[str, ModuleIndex] = {
            module.dotted: module for module in modules}
        #: Methods by name: the fallback for receivers no lexical rule
        #: resolves (a module-level function is never called that way).
        self._by_method: dict[str, list[Callee]] = {}
        for module in modules:
            for info in module.functions.values():
                if info.class_name is not None:
                    self._by_method.setdefault(info.name, []).append(
                        Callee(module=module, function=info))

    # -- lookups -----------------------------------------------------------

    def all_functions(self) -> Iterator[tuple[ModuleIndex, FunctionInfo]]:
        for module in self.modules.values():
            for info in module.functions.values():
                yield module, info

    def _function_at(self, dotted_path: str) -> Callee | None:
        """Resolve ``pkg.mod.func`` / ``pkg.mod.Class.meth`` / class ctor."""
        parts = dotted_path.split(".")
        for split in range(len(parts) - 1, 0, -1):
            module = self.modules.get(".".join(parts[:split]))
            if module is None:
                continue
            qualname = ".".join(parts[split:])
            info = module.functions.get(qualname)
            if info is not None:
                return Callee(module=module, function=info)
            if qualname in module.classes:
                ctor = module.functions.get(f"{qualname}.__init__")
                if ctor is not None:
                    return Callee(module=module, function=ctor)
            return None
        return None

    def _resolve_alias_chain(self, aliases: dict[str, str],
                             raw: str) -> Callee | None:
        parts = raw.split(".")
        target = aliases.get(parts[0])
        if target is None:
            return None
        return self._function_at(".".join([target, *parts[1:]]))

    def resolve_call(self, module: ModuleIndex, caller: FunctionInfo,
                     call: CallInfo) -> list[Callee]:
        """Candidate targets of one call site.

        Exactly-resolved targets come back as a single candidate; receiver
        calls that cannot be resolved lexically fall back to matching every
        known method of that name.  So do ``self.m()`` and ``cls.m()``: a
        subclass may override ``m``.
        """
        parts = call.raw.split(".")
        aliases = {**module.aliases, **caller.aliases} if caller.aliases \
            else module.aliases
        if parts[0] in ("self", "cls") and caller.class_name is not None:
            return self._by_method.get(parts[-1], [])
        if len(parts) == 1:
            name = parts[0]
            info = module.functions.get(name)
            if info is not None:
                return [Callee(module=module, function=info)]
            if name in module.classes:
                ctor = module.functions.get(f"{name}.__init__")
                return [Callee(module=module, function=ctor)] if ctor else []
            target = aliases.get(name)
            if target is not None:
                resolved = self._function_at(target)
                return [resolved] if resolved else []
            return []
        resolved = self._resolve_alias_chain(aliases, call.raw)
        if resolved is not None:
            return [resolved]
        return self._by_method.get(parts[-1], [])

    # -- call graph --------------------------------------------------------

    def call_graph(self) -> dict[str, set[str]]:
        """Edges ``caller-path -> {callee-paths}`` over the whole project."""
        edges: dict[str, set[str]] = {}
        for module, info in self.all_functions():
            source = f"{module.dotted}:{info.qualname}"
            targets = edges.setdefault(source, set())
            for call in info.calls:
                for callee in self.resolve_call(module, info, call):
                    targets.add(callee.path)
        return edges
