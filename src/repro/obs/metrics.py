"""Counters, gauges and fixed-bucket histograms for the simulator.

The registry is the in-memory half of the observability layer
(:mod:`repro.obs`): instrumentation points increment counters, set gauges
and feed histograms; :mod:`repro.obs.report` renders the snapshot and the
executor merges per-worker registries back into the parent.

Two properties drive the design:

* **Cheap when disabled.**  Instrumented code holds an
  :class:`~repro.obs.scope.Observation` (or ``None``); the disabled path is
  a single ``is None`` test, and no instrument object is ever constructed.
* **Order-independent merge.**  The parallel executor collects one registry
  per worker chunk and folds them into the parent.  Counter merge is
  addition, histogram merge is per-bucket addition, gauge merge keeps the
  maximum -- all commutative and associative, so the folded snapshot does
  not depend on chunk completion order (the same discipline that keeps
  parallel sweeps bit-for-bit identical to serial ones).

Histograms use *fixed* bucket bounds chosen at creation: merging two
histograms never requires re-bucketing, and the p50/p90/p99 summaries are
deterministic functions of the counts (linear interpolation inside the
bucket that crosses the rank).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from operator import add
from typing import Iterable

import numpy as np

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Default histogram bucket upper bounds: log-ish spacing covering
#: microseconds-to-minutes durations and small-to-huge counts alike.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001, 0.001, 0.01, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0,
    500.0, 1000.0, 5000.0, 10000.0, 50000.0,
)


@dataclass
class Counter:
    """A monotone sum (events seen, slots observed, cache hits...)."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only move forward; use a gauge")
        self.value += amount

    def merge(self, other: "Counter") -> None:
        self.value += other.value


@dataclass
class Gauge:
    """A last-known level (worker count, active cells).

    Merging keeps the **maximum**: "last write" depends on chunk completion
    order, so it would break the executor's order-independent fold; for the
    levels we track (pool width, peak queue depth) the high-water mark is
    the useful aggregate anyway.
    """

    name: str
    value: float = 0.0
    #: True once ``set`` was called; an unset gauge merges as identity.
    touched: bool = False

    def set(self, value: float) -> None:
        self.value = float(value)
        self.touched = True

    def merge(self, other: "Gauge") -> None:
        if other.touched:
            self.value = max(self.value, other.value) if self.touched \
                else other.value
            self.touched = True


@dataclass
class Histogram:
    """Fixed-bucket histogram with rank-interpolated percentile summaries."""

    name: str
    bounds: tuple[float, ...] = DEFAULT_BUCKETS
    counts: list[int] = field(default_factory=list)
    #: Observations above the last bound land in the overflow bucket.
    overflow: int = 0
    total: float = 0.0
    n: int = 0
    min_seen: float = float("inf")
    max_seen: float = float("-inf")

    def __post_init__(self) -> None:
        if not self.bounds or list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be non-empty ascending")
        if not self.counts:
            self.counts = [0] * len(self.bounds)
        elif len(self.counts) != len(self.bounds):
            raise ValueError("counts must align with bounds")

    def observe(self, value: float) -> None:
        value = float(value)
        self.n += 1
        self.total += value
        self.min_seen = min(self.min_seen, value)
        self.max_seen = max(self.max_seen, value)
        # The first bound >= value; NaN compares false with every bound,
        # so it overflows.
        index = bisect_left(self.bounds, value)
        if index < len(self.bounds) and value == value:
            self.counts[index] += 1
        else:
            self.overflow += 1

    def observe_many(self, values: np.ndarray) -> None:
        """:meth:`observe` each of ``values`` in order, in one pass.

        The result is the same to the bit: bucket counts come from
        ``searchsorted`` (``bisect_left``), NaN overflows and never moves
        the minimum or maximum, and the total is added left to right
        (``np.add.accumulate`` adds sequentially, unlike ``sum``).  Only the
        sign of a zero minimum or maximum may differ.
        """
        values = np.asarray(values, dtype=np.float64)
        if not values.size:
            return
        self.n += int(values.size)
        self.total = float(np.add.accumulate(
            np.concatenate(([self.total], values)))[-1])
        # A NaN among the values makes the running total NaN, so a
        # non-NaN total says every value is seen.
        seen = values if self.total == self.total \
            else values[values == values]
        if seen.size:
            self.min_seen = min(self.min_seen, float(np.minimum.reduce(seen)))
            self.max_seen = max(self.max_seen, float(np.maximum.reduce(seen)))
        buckets = np.bincount(self._bounds_array.searchsorted(seen),
                              minlength=len(self.bounds) + 1).tolist()
        self.counts = list(map(add, self.counts, buckets))
        self.overflow += buckets[-1] + int(values.size - seen.size)

    @cached_property
    def _bounds_array(self) -> np.ndarray:
        """``bounds`` as the array ``searchsorted`` would convert it to."""
        return np.asarray(self.bounds, dtype=np.float64)

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0

    def quantile(self, q: float) -> float:
        """Rank-``q`` estimate from the bucket counts.

        Linear interpolation inside the bucket that crosses the rank,
        starting the first occupied bucket at the minimum seen; the
        overflow bucket reports the true maximum seen (it has no upper
        bound to interpolate toward).  The estimate never leaves
        ``[min_seen, max_seen]``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.n == 0:
            return 0.0
        rank = q * self.n
        cumulative = 0
        lower = self.min_seen
        for index, bound in enumerate(self.bounds):
            count = self.counts[index]
            if count and cumulative + count >= rank:
                inside = max(rank - cumulative, 0.0)
                estimate = lower + (bound - lower) * (inside / count)
                return min(max(estimate, self.min_seen), self.max_seen)
            if count:
                lower = bound
            cumulative += count
        return self.max_seen

    def merge(self, other: "Histogram") -> None:
        if self.bounds != other.bounds:
            raise ValueError(
                f"cannot merge histogram {self.name!r}: bucket bounds differ")
        self.counts = list(map(add, self.counts, other.counts))
        self.overflow += other.overflow
        self.total += other.total
        self.n += other.n
        self.min_seen = min(self.min_seen, other.min_seen)
        self.max_seen = max(self.max_seen, other.max_seen)

    def summary(self) -> dict:
        return {
            "count": self.n,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            "min": self.min_seen if self.n else 0.0,
            "max": self.max_seen if self.n else 0.0,
        }


class MetricsRegistry:
    """Named instruments, created on first use, merged order-independently."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instrument accessors (create on first touch) ---------------------

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str,
                  bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, bounds)
        elif instrument.bounds != bounds:
            raise ValueError(
                f"histogram {name!r} already registered with other bounds")
        return instrument

    def add_counts(self, amounts: Iterable[tuple[str, float]]) -> None:
        """``counter(name).inc(amount)`` for each pair, in order."""
        counters = self._counters
        for name, amount in amounts:
            if amount < 0:
                raise ValueError("counters only move forward; use a gauge")
            counter = counters.get(name)
            if counter is None:
                counter = counters[name] = Counter(name)
            counter.value += amount

    # -- folding -----------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry (commutative, associative).

        Each instrument is what ``self.counter(name).merge(counter)`` and
        its gauge and histogram siblings make of it, looked up inline.
        """
        counters = self._counters
        for name, counter in other._counters.items():
            mine = counters.get(name)
            if mine is None:
                counters[name] = Counter(name, 0.0 + counter.value)
            else:
                mine.value += counter.value
        for name, gauge in other._gauges.items():
            self.gauge(name).merge(gauge)
        histograms = self._histograms
        for name, histogram in other._histograms.items():
            mine = histograms.get(name)
            if mine is None or mine.bounds != histogram.bounds:
                mine = self.histogram(name, histogram.bounds)
            mine.merge(histogram)

    def absorb(self, other: "MetricsRegistry") -> None:
        """:meth:`merge` a registry that is done with: an instrument this
        one lacks is taken over, not copied.

        A taken-over instrument snapshots as its merged copy would: a
        counter's value is already a float and a histogram's sums are
        what adding them to empty ones gives.  ``other`` must not be
        written to afterwards.
        """
        kinds = ("_counters", "_gauges", "_histograms")
        if any(getattr(self, kind).keys() & getattr(other, kind).keys()
               for kind in kinds):
            self.merge(other)
            return
        for kind in kinds:
            getattr(self, kind).update(getattr(other, kind))

    def snapshot(self) -> dict:
        """Plain sorted-key dict of every instrument (JSON-ready)."""
        return {
            "counters": {name: self._counters[name].value
                         for name in sorted(self._counters)},
            "gauges": {name: self._gauges[name].value
                       for name in sorted(self._gauges)
                       if self._gauges[name].touched},
            "histograms": {name: self._histograms[name].summary()
                           for name in sorted(self._histograms)},
        }

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)
