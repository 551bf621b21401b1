"""Span tracing for the benchmark's traced run, installed from outside.

The package under test carries no benchmark hooks: :func:`instrument`
replaces public functions *where the calling code looks them up* (module
globals and class attributes) with wrappers that record one span each.
``repro.service.core`` binds ``plan_shards``, ``execute_cells`` and
``encode_response`` by name at import, so those are patched in that
module's namespace; ``run_chunk`` imports ``run_batch`` lazily at call
time, so that one is patched on ``repro.kernels.engine``.

A span is ``(id, name, start, end, parent, request)``: ``perf_counter``
bounds, the id of the enclosing span and the id shared by every span of
one request (the root span's id).  The enclosing span is tracked in a
``ContextVar``, which follows both threads and asyncio tasks.  The one
hop no context follows -- the front end hands a parsed request to
``InventoryService.handle`` on a pool thread -- is bridged by remembering
which span parsed each request object.  Spans live in memory until
:meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
from time import perf_counter

#: Which layer each traced function belongs to (the per-layer ledger's rows).
LAYER = {
    "frontend.serve_connection": "service.frontend",
    "requests.request_from_dict": "service.requests",
    "requests.key": "service.requests",
    "requests.encode_response": "service.requests",
    "core.handle": "service.core",
    "sharding.plan_shards": "service.sharding",
    "executor.execute_cells": "experiments.executor",
    "executor.run_chunk": "experiments.executor",
    "result_cache.lookup": "experiments.result_cache",
    "result_cache.run_prefix": "experiments.result_cache",
    "result_cache.store": "experiments.result_cache",
    "result_cache.store_runs": "experiments.result_cache",
    "result_cache.save": "experiments.result_cache",
    "kernels.run_batch": "kernels",
    "obs.merge": "obs",
}

#: The ledger's rows, in stack order.
LAYERS = tuple(dict.fromkeys(LAYER.values()))

_CURRENT: contextvars.ContextVar[tuple[int, int] | None] = \
    contextvars.ContextVar("perfbench_span", default=None)


def _batch_note(results) -> list[int]:
    """What a kernel batch did: runs, slots, collision slots, resolved IDs."""
    return [len(results), sum(r.total_slots for r in results),
            sum(r.collision_slots for r in results),
            sum(r.resolved_from_collision for r in results)]


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        #: id(parsed request) -> the span context that parsed it.
        self._parsed_by: dict[int, tuple[int, int] | None] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _enter(self, adopt: tuple[int, int] | None = None):
        parent = _CURRENT.get() or adopt
        span_id = next(self._ids)
        request = parent[1] if parent else span_id
        token = _CURRENT.set((span_id, request))
        return span_id, parent, request, token

    def _exit(self, name, span_id, parent, request, token, start,
              note=None, result=None) -> None:
        end = perf_counter()
        _CURRENT.reset(token)
        summary = note(result) if note and result is not None else None
        self.spans.append((span_id, name, start, end,
                           parent[0] if parent else None, request, summary))

    def wrap(self, fn, name: str, note=None, adopt=None):
        """A traced stand-in for ``fn``.

        ``note(result)`` attaches a small summary of a non-``None`` result
        to the span (it runs after the span is closed); ``adopt(args)``
        names a parent context for calls that arrive on a thread with no
        span of their own.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, parent, request, token = tracer._enter(
                adopt(args) if adopt else None)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._exit(name, span_id, parent, request, token, start,
                             note, result)
        return traced

    def wrap_async(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            span_id, parent, request, token = tracer._enter()
            start = perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer._exit(name, span_id, parent, request, token, start)
        return traced

    def patch(self, owner, attribute: str, name: str, **options) -> None:
        original = getattr(owner, attribute)
        wrapper = self.wrap_async if inspect.iscoroutinefunction(original) \
            else self.wrap
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, wrapper(original, name, **options))

    def restore(self) -> None:
        """Put every patched function back (latest first)."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- the service's thread hop -------------------------------------------

    def _parse_note(self, request) -> None:
        """Remember the span that parsed ``request`` (a connection span)."""
        self._parsed_by[id(request)] = _CURRENT.get()

    def _handle_parent(self, args):
        return self._parsed_by.pop(id(args[1]), None)

    # -- output --------------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def instrument(tracer: Tracer) -> None:
    """Wrap the layers' public functions, the service stack's included.

    Call before the service starts listening: the front end binds its
    connection handler at that point.  A ``lookup`` span's note is 1 on a
    hit and absent on a miss.
    """
    from repro.experiments import executor, result_cache
    from repro.kernels import engine
    from repro.obs.scope import Observation

    tracer.patch(executor, "execute_cells", "executor.execute_cells")
    tracer.patch(executor, "run_chunk", "executor.run_chunk")
    tracer.patch(engine, "run_batch", "kernels.run_batch", note=_batch_note)
    for method in ("lookup", "run_prefix", "store", "store_runs", "save"):
        note = (lambda hit: 1) if method == "lookup" else None
        tracer.patch(result_cache.ResultCache, method,
                     f"result_cache.{method}", note=note)
    tracer.patch(Observation, "merge", "obs.merge")
    from repro.service import core, frontend, requests

    tracer.patch(frontend.ServiceFrontend, "_serve_connection",
                 "frontend.serve_connection")
    tracer.patch(frontend, "request_from_dict", "requests.request_from_dict",
                 note=tracer._parse_note)
    tracer.patch(requests.InventoryRequest, "key", "requests.key")
    tracer.patch(core.InventoryService, "handle", "core.handle",
                 adopt=tracer._handle_parent)
    tracer.patch(core, "plan_shards", "sharding.plan_shards")
    tracer.patch(core, "execute_cells", "executor.execute_cells")
    tracer.patch(core, "encode_response", "requests.encode_response")


# -- analysis ----------------------------------------------------------------

class SpanSet:
    """Spans indexed for self-time and per-layer accounting."""

    def __init__(self, spans) -> None:
        self.spans = [tuple(span) for span in spans]
        self.by_id = {span[0]: span for span in self.spans}
        self.children: dict[int, list[tuple]] = {}
        for span in self.spans:
            if span[4] is not None:
                self.children.setdefault(span[4], []).append(span)

    @staticmethod
    def duration(span) -> float:
        return span[3] - span[2]

    def self_time(self, span) -> float:
        return self.duration(span) - sum(
            self.duration(child) for child in self.children.get(span[0], ()))

    def named(self, name: str) -> list[tuple]:
        return [span for span in self.spans if span[1] == name]

    def has_child(self, span, name: str) -> bool:
        return any(child[1] == name
                   for child in self.children.get(span[0], ()))

    def subtree(self, roots) -> list[tuple]:
        out, stack = [], list(roots)
        while stack:
            span = stack.pop()
            out.append(span)
            stack.extend(self.children.get(span[0], ()))
        return out

    def layer_self(self, roots) -> dict[str, float]:
        """Seconds of self time per layer over the trees under ``roots``."""
        totals = dict.fromkeys(LAYERS, 0.0)
        for span in self.subtree(roots):
            totals[LAYER[span[1]]] += self.self_time(span)
        return totals

    def mean_ms(self, spans) -> float:
        return 1000.0 * sum(map(self.duration, spans)) / len(spans) \
            if spans else 0.0


def span_metrics(spans: SpanSet) -> dict[str, float]:
    """The per-layer metrics that spans alone determine (0 where unused)."""
    handles = spans.named("core.handle")
    cold = [span for span in handles
            if spans.has_child(span, "sharding.plan_shards")]
    warm = [span for span in handles
            if not spans.has_child(span, "sharding.plan_shards")]
    executes = [span for span in spans.named("executor.execute_cells")
                if spans.has_child(span, "executor.run_chunk")]
    executor_self = spans.layer_self(executes)["experiments.executor"]
    lookups = spans.named("result_cache.lookup")
    hits = sum(1 for span in lookups if span[6] == 1)
    batches = spans.named("kernels.run_batch")
    runs, slots, collisions, resolved = (
        [sum(column) for column in zip(*(span[6] for span in batches))]
        or [0, 0, 0, 0])
    batch_s = sum(map(spans.duration, batches))
    return {
        "requests.parse_ms": spans.mean_ms(
            spans.named("requests.request_from_dict")),
        "requests.key_ms": spans.mean_ms(spans.named("requests.key")),
        "requests.encode_ms": spans.mean_ms(
            spans.named("requests.encode_response")),
        "core.handle_ms": spans.mean_ms(cold),
        "core.self_ms": 1000.0 * sum(map(spans.self_time, cold)) / len(cold)
        if cold else 0.0,
        "core.warm_wait_ms": spans.mean_ms(warm),
        "sharding.plan_ms": spans.mean_ms(spans.named("sharding.plan_shards")),
        "executor.execute_ms": spans.mean_ms(executes),
        "executor.self_ms": 1000.0 * executor_self / len(executes)
        if executes else 0.0,
        "executor.chunks": len(spans.named("executor.run_chunk"))
        / len(executes) if executes else 0.0,
        "result_cache.lookup_ms": spans.mean_ms(lookups),
        "result_cache.save_ms": spans.mean_ms(
            spans.named("result_cache.save")),
        "result_cache.hits": hits,
        "result_cache.misses": len(lookups) - hits,
        "result_cache.hit_ratio": hits / len(lookups) if lookups else 0.0,
        "kernels.batch_ms": spans.mean_ms(batches),
        "kernels.runs": runs,
        "kernels.slots": slots,
        "kernels.ns_per_slot": 1e9 * batch_s / slots if slots else 0.0,
        "kernels.anc_resolved_ratio": resolved / collisions
        if collisions else 0.0,
        "obs.merge_ms": spans.mean_ms(spans.named("obs.merge")),
    }


def print_ledger(label: str, total_s: float, layers: dict[str, float],
                 ops: int, overhead: float) -> float:
    """Print self time per layer; returns the unattributed remainder (s)."""
    unattributed = total_s - sum(layers.values())
    print(f"  per-layer self time, {label}: {ops} operations, "
          f"{total_s:.3f} s traced end to end")
    for layer in LAYERS:
        share = layers[layer] / total_s if total_s else 0.0
        print(f"    {layer:<26} {layers[layer]:9.4f} s  {share:6.1%}")
    share = unattributed / total_s if total_s else 0.0
    print(f"    {'unattributed':<26} {unattributed:9.4f} s  {share:6.1%}")
    print(f"    {'sum':<26} {total_s:9.4f} s")
    print(f"  tracing overhead (traced vs untraced, same inputs): "
          f"{overhead:+.1%}")
    return unattributed
