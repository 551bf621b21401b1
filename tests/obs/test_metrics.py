"""MetricsRegistry: instrument semantics and the order-independent fold."""

from __future__ import annotations

import itertools
import math

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_accumulates(self):
        counter = Counter("slots")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="forward"):
            Counter("slots").inc(-1)

    def test_merge_adds(self):
        a, b = Counter("x", 3), Counter("x", 4)
        a.merge(b)
        assert a.value == 7


class TestGauge:
    def test_merge_keeps_maximum(self):
        a, b = Gauge("workers"), Gauge("workers")
        a.set(4)
        b.set(2)
        a.merge(b)
        assert a.value == 4
        b.merge(a)
        assert b.value == 4  # same result under either merge order

    def test_untouched_gauge_merges_as_identity(self):
        a, b = Gauge("workers"), Gauge("workers")
        b.set(0)  # an explicit zero must survive the merge
        a.merge(b)
        assert a.touched and a.value == 0


class TestHistogram:
    def test_quantiles_interpolate_within_buckets(self):
        histogram = Histogram("v", bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.5, 3.0):
            histogram.observe(value)
        assert histogram.n == 4
        assert histogram.mean == pytest.approx(1.625)
        assert 0.0 < histogram.quantile(0.25) <= 1.0
        assert 1.0 < histogram.quantile(0.75) <= 2.0

    def test_overflow_reports_true_maximum(self):
        histogram = Histogram("v", bounds=(1.0,))
        histogram.observe(123.0)
        assert histogram.overflow == 1
        assert histogram.quantile(0.99) == 123.0

    @pytest.mark.parametrize("values, q, expected", [
        ([0.2] * 10, 0.50, 0.2),
        ([0.2] * 10, 0.99, 0.2),
        ([0.05, 40.0], 0.99, 40.0),
        ([-3.0, -1.0], 0.50, None),
    ], ids=["flat-p50", "flat-p99", "wide-p99", "negative-p50"])
    def test_quantiles_stay_within_the_observed_range(self, values, q,
                                                      expected):
        """Interpolating toward a bucket's upper bound can overshoot the
        largest value seen, and negative values sit below any bucket
        floor of zero; the estimate must stay in ``[min, max]``."""
        histogram = Histogram("v")
        for value in values:
            histogram.observe(value)
        estimate = histogram.quantile(q)
        assert min(values) <= estimate <= max(values)
        if expected is not None:
            assert estimate == expected

    @pytest.mark.parametrize("bounds", [
        DEFAULT_BUCKETS, (1.0,), (-1.0, 0.0, 0.0, 2.0), (0.5, math.inf),
        (1, 2, 4),
    ], ids=["default", "single", "duplicate-zero", "inf-bound", "int-bounds"])
    def test_bucket_search_matches_a_linear_scan(self, bounds):
        """Every value lands where a first-bound->=-value scan puts it:
        on each bound, one ULP either side, beyond both ends, +-inf, and
        NaN (which compares false with every bound, so overflows)."""
        def linear_bucket(value):
            for index, bound in enumerate(bounds):
                if value <= bound:
                    return index
            return None  # overflow

        values = [math.inf, -math.inf, math.nan, 0.0, -0.0]
        for bound in bounds:
            values += [bound, math.nextafter(bound, -math.inf),
                       math.nextafter(bound, math.inf)]
        for value in values:
            histogram = Histogram("v", bounds=bounds)
            histogram.observe(value)
            expected = [0] * len(bounds)
            bucket = linear_bucket(float(value))
            if bucket is not None:
                expected[bucket] = 1
            assert histogram.counts == expected, value
            assert histogram.overflow == (bucket is None), value

    def test_merge_requires_matching_bounds(self):
        with pytest.raises(ValueError, match="bounds differ"):
            Histogram("v", bounds=(1.0,)).merge(Histogram("v", bounds=(2.0,)))

    def test_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError, match="ascending"):
            Histogram("v", bounds=(2.0, 1.0))

    def test_summary_fields(self):
        histogram = Histogram("v")
        histogram.observe(1.0)
        summary = histogram.summary()
        assert set(summary) == {"count", "mean", "p50", "p90", "p99",
                                "min", "max"}
        assert summary["count"] == 1 and summary["min"] == 1.0


def _worker_registry(spec: dict) -> MetricsRegistry:
    registry = MetricsRegistry()
    for name, amount in spec.get("counters", {}).items():
        registry.counter(name).inc(amount)
    for name, value in spec.get("gauges", {}).items():
        registry.gauge(name).set(value)
    for name, values in spec.get("histograms", {}).items():
        for value in values:
            registry.histogram(name).observe(value)
    return registry


class TestRegistryMerge:
    # Three unequal worker registries with overlapping and disjoint names:
    # the shape the executor folds after a parallel sweep.
    WORKERS = [
        {"counters": {"slots": 10, "reads": 3},
         "gauges": {"workers": 2},
         "histograms": {"chunk_s": [0.1, 0.4]}},
        {"counters": {"slots": 7},
         "gauges": {"workers": 4, "depth": 1},
         "histograms": {"chunk_s": [0.2], "wait_s": [0.05]}},
        {"counters": {"reads": 5, "hits": 1},
         "histograms": {"wait_s": [120.0]}},
    ]

    def test_fold_is_order_independent(self):
        """Every permutation of the worker fold yields one snapshot --
        the property that keeps parallel telemetry deterministic."""
        snapshots = []
        for order in itertools.permutations(range(len(self.WORKERS))):
            parent = MetricsRegistry()
            for index in order:
                parent.merge(_worker_registry(self.WORKERS[index]))
            snapshots.append(parent.snapshot())
        assert all(snapshot == snapshots[0] for snapshot in snapshots[1:])
        assert snapshots[0]["counters"] == {"hits": 1, "reads": 8,
                                            "slots": 17}
        assert snapshots[0]["gauges"] == {"depth": 1, "workers": 4}
        assert snapshots[0]["histograms"]["chunk_s"]["count"] == 3

    def test_fold_is_associative(self):
        """(a+b)+c == a+(b+c): chunk outcomes can be pre-folded anywhere."""
        a, b, c = (_worker_registry(spec) for spec in self.WORKERS)
        left = MetricsRegistry()
        left.merge(a)
        left.merge(b)
        left.merge(c)
        bc = _worker_registry(self.WORKERS[1])
        bc.merge(_worker_registry(self.WORKERS[2]))
        right = _worker_registry(self.WORKERS[0])
        right.merge(bc)
        assert left.snapshot() == right.snapshot()

    def test_snapshot_is_sorted_and_json_shaped(self):
        registry = _worker_registry(self.WORKERS[0])
        snapshot = registry.snapshot()
        assert list(snapshot) == ["counters", "gauges", "histograms"]
        assert list(snapshot["counters"]) == sorted(snapshot["counters"])

    def test_histogram_bounds_conflict_is_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("v", bounds=(1.0,))
        with pytest.raises(ValueError, match="other bounds"):
            registry.histogram("v", bounds=DEFAULT_BUCKETS)


class TestHistogramPartitionProperty:
    """Partitioning a value stream across worker registries must not move
    the percentiles: whatever batch size the adaptive planner schedules
    (and whatever order the chunks fold back in), the merged histogram is
    the single-registry histogram."""

    # A deterministic stream shaped like planner batch telemetry:
    # rel-half-widths spanning several buckets, with repeats and extremes.
    VALUES = [((7 * i) % 23) * 0.013 + (0.9 if i % 11 == 0 else 0.0)
              for i in range(60)]

    @staticmethod
    def _single(values) -> dict:
        registry = MetricsRegistry()
        for value in values:
            registry.histogram("planner.batch_rel_half_width").observe(value)
        return registry.snapshot()["histograms"][
            "planner.batch_rel_half_width"]

    def _merged(self, batch_size: int, reverse: bool = False) -> dict:
        batches = [self.VALUES[i:i + batch_size]
                   for i in range(0, len(self.VALUES), batch_size)]
        if reverse:
            batches = batches[::-1]
        parent = MetricsRegistry()
        for batch in batches:
            worker = MetricsRegistry()
            for value in batch:
                worker.histogram(
                    "planner.batch_rel_half_width").observe(value)
            parent.merge(worker)
        return parent.snapshot()["histograms"][
            "planner.batch_rel_half_width"]

    @pytest.mark.parametrize("batch_size", [1, 2, 3, 5, 8, 25, 60, 61])
    def test_percentiles_survive_any_partition(self, batch_size):
        reference = self._single(self.VALUES)
        merged = self._merged(batch_size)
        for key in ("count", "p50", "p90", "p99", "min", "max"):
            assert merged[key] == reference[key], key

    @pytest.mark.parametrize("batch_size", [2, 5, 25])
    def test_percentiles_survive_merge_order(self, batch_size):
        forward = self._merged(batch_size)
        backward = self._merged(batch_size, reverse=True)
        for key in ("count", "p50", "p90", "p99", "min", "max"):
            assert forward[key] == backward[key], key
