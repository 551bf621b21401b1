"""Where a cold inventory request's time goes, in process.

    PYTHONPATH=src python scripts/cold_request_ledger.py

Prints three measurements of ``InventoryService.handle`` (``jobs=1``,
this process pinned to one CPU where the platform allows it):

1. **The fixed cost.**  A 64-tag, 1-zone cold request without a result
   cache, ``TINY_REQUESTS`` times with fresh seeds on one service: the
   p50 of ``handle``, then per-layer self times.  The layers are wrapped
   with ``perf_counter`` spans; a span's self time excludes the spans
   inside it, and ``other`` is ``handle``'s own.  The rows are means over
   the middle tenth of the requests by total, so they add up to that
   tenth's mean total, which sits at the p50.
2. **The per-zone cost.**  Cache-served requests (λ 3, overlap 0.15,
   4,096 tags a zone, every zone cell a result-cache hit) at 16, 48 and
   ``MAX_ZONES`` (256) zones: p50 of ``handle`` each and the slope per
   zone between neighbouring sizes.  The requests
   differ only in ``max_phases`` at or above the ring's two phases, so
   each is a new address with the same plan.
3. **Python against C.**  A fixed set of service-sized requests (2^16 to
   2^20 tags, 16 to 24 zones, λ 2 to 4, one shared result cache): per
   request the time inside ``_run_native`` (the ``fcat_run`` call and
   its row copy) and the rest of ``handle``, at the median request.

Exits 1 if some ledger's rows do not add up to its total; there is no
timing threshold.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.experiments import executor
from repro.experiments.result_cache import ResultCache
from repro.kernels import engine, fcat
from repro.obs.scope import Observation
from repro.service import core
from repro.service.core import InventoryService, ServiceConfig
from repro.service.requests import MAX_ZONES, InventoryRequest
from repro.sim.base import TagReadingProtocol

TINY_REQUESTS = 600
SLOPE_REQUESTS = 200
SLOPE_ZONES = (16, 48, MAX_ZONES)
ZONE_TAGS = 4096

#: (row, owner, attribute): what each ledger row wraps.  ``owner`` is
#: where the calling code looks the function up.
LAYERS = (
    ("requests.key", InventoryRequest, "key"),
    ("sharding.plan_shards", core, "plan_shards"),
    ("executor.execute_cells", core, "execute_cells"),
    ("executor.run_chunk", executor, "run_chunk"),
    ("kernels.run_batch", engine, "run_batch"),
    ("kernels.session_setup", fcat._NativeFcatSession, "__init__"),
    ("kernels.fcat_run", fcat, "_run_native"),
    ("kernels.session_close", fcat._NativeFcatSession, "close"),
    ("obs.record_telemetry", fcat, "_record_telemetry"),
    ("obs.observe_session", TagReadingProtocol, "observe_session"),
    ("obs.merge", Observation, "merge"),
    ("sim.aggregate_metrics", executor, "aggregate_metrics"),
    ("core.payload", InventoryService, "_payload"),
    ("requests.encode_response", core, "encode_response"),
    ("core.slide_window", InventoryService, "_slide_window"),
)


class Spans:
    """Self time per row, for the request in flight."""

    def __init__(self) -> None:
        self.rows: dict[str, float] = {}
        self._stack: list[float] = []  # child time per open span
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, row: str, function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            self._stack.append(0.0)
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                children = self._stack.pop()
                self.rows[row] = self.rows.get(row, 0.0) + elapsed - children
                if self._stack:
                    self._stack[-1] += elapsed
        return wrapper

    def install(self) -> None:
        for row, owner, name in LAYERS:
            original = inspect.getattr_static(owner, name)
            if isinstance(original, staticmethod):
                wrapped = staticmethod(self._wrap(row, original.__func__))
            else:
                wrapped = self._wrap(row, original)
            # An inherited method is shadowed, then unshadowed on removal.
            own = vars(owner).get(name)
            self._patched.append((owner, name, own))
            setattr(owner, name, wrapped)

    def remove(self) -> None:
        for owner, name, own in reversed(self._patched):
            if own is None:
                delattr(owner, name)
            else:
                setattr(owner, name, own)
        self._patched.clear()

    def handle(self, service: InventoryService,
               request: InventoryRequest) -> tuple[float, dict[str, float]]:
        """One request's total and its rows, ``other`` included."""
        self.rows = {}
        self._stack = [0.0]
        started = time.perf_counter()
        service.handle(request)
        total = time.perf_counter() - started
        rows = dict(self.rows)
        rows["other"] = total - self._stack[0]
        return total, rows


def timed(service: InventoryService, request: InventoryRequest) -> float:
    started = time.perf_counter()
    service.handle(request)
    return time.perf_counter() - started


def tiny(seed: int) -> InventoryRequest:
    return InventoryRequest(n_tags=64, zones=1, seed=seed)


def fixed_cost() -> bool:
    service = InventoryService()
    service.handle(tiny(0))  # warm-up: imports, the native build
    plain = [timed(service, tiny(seed))
             for seed in range(1, TINY_REQUESTS + 1)]
    spans = Spans()
    spans.install()
    try:
        ledger = [spans.handle(service, tiny(seed))
                  for seed in range(TINY_REQUESTS + 1,
                                    2 * TINY_REQUESTS + 1)]
    finally:
        spans.remove()
    ledger.sort(key=lambda entry: entry[0])
    middle = ledger[len(ledger) * 9 // 20:len(ledger) * 11 // 20]
    total = statistics.fmean(entry[0] for entry in middle)
    rows = {row: statistics.fmean(entry[1].get(row, 0.0)
                                  for entry in middle)
            for row in [row for row, _, _ in LAYERS] + ["other"]}
    print(f"1. A 64-tag, 1-zone cold request, no result cache "
          f"({TINY_REQUESTS} requests)")
    print(f"   handle p50 {statistics.median(plain) * 1e6:8.1f} µs "
          f"unwrapped, {statistics.median(e[0] for e in ledger) * 1e6:.1f}"
          " µs wrapped")
    print("   self time per layer, middle tenth by total (wrapped):")
    for row, seconds in rows.items():
        print(f"     {row:<26} {seconds * 1e6:8.1f} µs "
              f"{seconds / total:6.1%}")
    summed = sum(rows.values())
    print(f"     {'sum':<26} {summed * 1e6:8.1f} µs "
          f"(total {total * 1e6:.1f} µs)")
    return abs(summed - total) <= 1e-9 + 1e-6 * total \
        and min(rows.values()) >= 0.0


def zone_request(zones: int, max_phases: int) -> InventoryRequest:
    return InventoryRequest(n_tags=zones * ZONE_TAGS, zones=zones, seed=5,
                            lam=3, overlap=0.15, max_phases=max_phases)


def per_zone_cost(directory: Path) -> None:
    service = InventoryService(ServiceConfig(
        cache=ResultCache(directory / "slope.json", signature="ledger")))
    service.handle(zone_request(8, 2))  # simulates the one cell
    p50 = {}
    for zones in SLOPE_ZONES:
        # Interleaved with the other sizes would share the response store;
        # a block per size keeps each p50 to one request shape.
        p50[zones] = statistics.median(
            timed(service, zone_request(zones, max_phases))
            for max_phases in range(2, SLOPE_REQUESTS + 2))
    print(f"2. Cache-served requests, λ 3, overlap 0.15 "
          f"({SLOPE_REQUESTS} each)")
    print("   handle p50 " + ", ".join(
        f"{p50[zones] * 1e3:.3f} ms at {zones} zones"
        for zones in SLOPE_ZONES))
    for low, high in zip(SLOPE_ZONES, SLOPE_ZONES[1:]):
        slope = (p50[high] - p50[low]) / (high - low)
        print(f"   {low} to {high} zones: {slope * 1e6:.2f} µs per zone")


def service_requests() -> list[InventoryRequest]:
    """A fixed set shaped like the benchmark's cold stream."""
    out = []
    for index in range(24):
        point = (index + 0.5) / 24
        zones = (16, 20, 24)[index % 3]
        n_tags = 240 * round(2 ** (16 + 4 * point * point) / 240)
        out.append(InventoryRequest(
            n_tags=n_tags, zones=zones, seed=7_000 + index,
            lam=(2, 3, 4)[index // 3 % 3],
            overlap=(0.1, 0.15, 0.2)[index // 2 % 3]))
    return out


def python_against_c(directory: Path) -> bool:
    native_s = [0.0]
    original = fcat._run_native

    def run_native(*args, **kwargs):
        started = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            native_s[0] += time.perf_counter() - started

    service = InventoryService(ServiceConfig(
        cache=ResultCache(directory / "set.json", signature="ledger")))
    service.handle(tiny(0))
    fcat._run_native = run_native
    try:
        splits = []
        for request in service_requests():
            native_s[0] = 0.0
            total = timed(service, request)
            splits.append((total, native_s[0]))
    finally:
        fcat._run_native = original
    splits.sort()
    total, native = splits[len(splits) // 2]
    print(f"3. The median of {len(splits)} service-sized requests "
          "(one shared result cache)")
    print(f"   handle {total * 1e3:.3f} ms: Python "
          f"{(total - native) * 1e3:.3f} ms, fcat_run "
          f"{native * 1e3:.3f} ms")
    return 0.0 <= native <= total


def main() -> int:
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # not Linux: run unpinned
        pass
    with tempfile.TemporaryDirectory() as directory:
        balanced = fixed_cost()
        per_zone_cost(Path(directory))
        balanced = python_against_c(Path(directory)) and balanced
    if not balanced:
        print("a ledger's rows do not add up to its total")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
