"""Pass 1 of the whole-program analyzer: the project index.

For every module the engine builds a :class:`ModuleIndex` -- import aliases,
class bases, module-level OS handles and a :class:`FunctionInfo` per
function or method holding its signature (parameter names and
annotations), every call it makes (callee as written) and its
module-global reads and writes.

:class:`ProjectIndex` assembles the per-module records into whole-program
structure: a global function table, alias-aware call resolution (falling
back to name-based method matching, the classic cheap-call-graph move) and
the call graph the fork-safety rule walks.

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
class ParamInfo:
    """One parameter (``self``/``cls`` are never recorded)."""

    name: str
    annotation: str | None = None


@dataclass
class FunctionInfo:
    """One function/method (or the synthetic dataclass constructor)."""

    qualname: str  # ``func`` or ``Class.method`` within the module
    lineno: int
    params: list[ParamInfo] = field(default_factory=list)
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

    def param(self, name: str) -> ParamInfo | None:
        for info in self.params:
            if info.name == name:
                return info
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
    #: class name -> base-class names as written (virtual dispatch input).
    class_bases: dict[str, tuple[str, ...]] = field(default_factory=dict)
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


def _annotation_str(node: ast.expr | None) -> str | None:
    if node is None:
        return None
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - malformed annotation
        return None


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
        bases = tuple(name for name in (_dotted(base)
                                        for base in node.bases)
                      if name is not None)
        if bases:
            self.index.class_bases[node.name] = bases
        fields: list[ParamInfo] = []
        has_init = False
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if item.name == "__init__":
                    has_init = True
                self._index_function(item, class_name=node.name)
            elif isinstance(item, ast.AnnAssign) \
                    and isinstance(item.target, ast.Name):
                name = item.target.id
                annotation = _annotation_str(item.annotation)
                if annotation and annotation.startswith("ClassVar"):
                    continue
                fields.append(ParamInfo(name=name, annotation=annotation))
        if fields and not has_init and _is_dataclass(node):
            # Synthetic constructor: `Class(...)` call sites resolve to it.
            self.index.functions[f"{node.name}.__init__"] = FunctionInfo(
                qualname=f"{node.name}.__init__", lineno=node.lineno,
                params=fields)

    # -- functions ---------------------------------------------------------

    def _index_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef,
                        class_name: str | None) -> None:
        qualname = f"{class_name}.{node.name}" if class_name else node.name
        args = node.args
        positional = [*args.posonlyargs, *args.args]
        if class_name and positional \
                and positional[0].arg in ("self", "cls"):
            positional = positional[1:]
        params = [ParamInfo(name=param.arg,
                            annotation=_annotation_str(param.annotation))
                  for param in [*positional, *args.kwonlyargs]]
        reads, writes = global_access(node, self.module_globals)
        info = FunctionInfo(
            qualname=qualname, lineno=node.lineno, params=params,
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
        self._subclasses = self._build_subclass_map()

    def _build_subclass_map(self) -> dict[str, set[str]]:
        """Base class dotted path -> transitive subclass dotted paths."""
        direct: dict[str, set[str]] = {}
        for module in self.modules.values():
            for name, bases in module.class_bases.items():
                child = f"{module.dotted}.{name}"
                for base in bases:
                    if base in module.classes:
                        resolved: str | None = f"{module.dotted}.{base}"
                    else:
                        head, *rest = base.split(".")
                        target = module.aliases.get(head)
                        resolved = ".".join([target, *rest]) \
                            if target else None
                    if resolved is not None:
                        direct.setdefault(resolved, set()).add(child)
        closed: dict[str, set[str]] = {}
        for root in direct:
            seen: set[str] = set()
            frontier = list(direct[root])
            while frontier:
                child = frontier.pop()
                if child in seen:
                    continue
                seen.add(child)
                frontier.extend(direct.get(child, ()))
            closed[root] = seen
        return closed

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
        known method of that name.
        """
        parts = call.raw.split(".")
        aliases = {**module.aliases, **caller.aliases} if caller.aliases \
            else module.aliases
        caller_class = caller.class_name
        if parts[0] in ("self", "cls") and caller_class is not None:
            if len(parts) == 2:
                own = module.functions.get(f"{caller_class}.{parts[1]}")
                if own is not None:
                    return [Callee(module=module, function=own)]
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
        # Receiver annotated with a known class?  `timing.session_seconds()`
        # resolves through the `timing: TimingModel` annotation.
        if len(parts) == 2:
            receiver = caller.param(parts[0])
            if receiver is not None and receiver.annotation:
                class_target = self._annotation_class(
                    module, receiver.annotation)
                if class_target is not None:
                    candidates = []
                    method = self._function_at(
                        f"{class_target}.{parts[1]}")
                    if method is not None:
                        candidates.append(method)
                    # Virtual dispatch: a subclass instance may flow in
                    # through the base-typed parameter, so every override
                    # is a candidate too.
                    for sub in sorted(self._subclasses.get(
                            class_target, ())):
                        override = self._function_at(f"{sub}.{parts[1]}")
                        if override is not None:
                            candidates.append(override)
                    if candidates:
                        return candidates
        return self._by_method.get(parts[-1], [])

    def _annotation_class(self, module: ModuleIndex,
                          annotation: str) -> str | None:
        """Dotted path of the class an annotation names, if known."""
        name = annotation.replace(" | None", "").strip()
        if not name.replace(".", "").replace("_", "").isalnum():
            return None
        head = name.split(".")[0]
        if name in module.classes:
            return f"{module.dotted}.{name}"
        target = module.aliases.get(head)
        if target is None:
            return None
        return ".".join([target, *name.split(".")[1:]])

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
