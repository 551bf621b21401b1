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
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
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

    # -- folding -----------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry (commutative, associative)."""
        for name, counter in other._counters.items():
            self.counter(name).merge(counter)
        for name, gauge in other._gauges.items():
            self.gauge(name).merge(gauge)
        for name, histogram in other._histograms.items():
            self.histogram(name, histogram.bounds).merge(histogram)

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
