"""ReadingResult accounting and aggregation."""

from __future__ import annotations

import statistics
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.air.timing import ICODE_TIMING
from repro.sim.result import ReadingResult, aggregate


def _result(**overrides) -> ReadingResult:
    base = dict(protocol="X", n_tags=100, n_read=100, empty_slots=10,
                singleton_slots=60, collision_slots=30)
    base.update(overrides)
    return ReadingResult(**base)


class TestReadingResult:
    def test_total_slots(self):
        assert _result().total_slots == 100

    def test_duration_includes_overheads(self):
        plain = _result()
        loaded = _result(advertisements=5, index_announcements=7,
                         id_announcements=2)
        expected_extra = (5 * ICODE_TIMING.advertisement_duration
                          + ICODE_TIMING.announcement_duration(7, 23)
                          + ICODE_TIMING.announcement_duration(2, 96))
        assert loaded.duration_s - plain.duration_s == pytest.approx(
            expected_extra)

    def test_throughput(self):
        result = _result()
        assert result.throughput == pytest.approx(
            100 / (100 * ICODE_TIMING.slot_duration))

    def test_complete_flag(self):
        assert _result().complete
        assert not _result(n_read=99).complete

    def test_zero_slots_raises_on_throughput(self):
        empty = _result(empty_slots=0, singleton_slots=0, collision_slots=0)
        with pytest.raises(ValueError):
            _ = empty.throughput

    def test_summary_mentions_key_numbers(self):
        text = _result().summary()
        assert "100/100" in text and "X" in text


class TestAggregate:
    def test_means_and_std(self):
        results = [_result(singleton_slots=60), _result(singleton_slots=80)]
        agg = aggregate(results)
        assert agg.runs == 2
        assert agg.singleton_mean == 70
        assert agg.throughput_std > 0

    def test_single_run_has_zero_std(self):
        agg = aggregate([_result()])
        assert agg.throughput_std == 0.0

    def test_resolved_fraction(self):
        agg = aggregate([_result(resolved_from_collision=40)])
        assert agg.resolved_fraction == pytest.approx(0.4)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_rejects_mixed_protocols(self):
        with pytest.raises(ValueError):
            aggregate([_result(), _result(protocol="Y")])

    def test_rejects_mixed_sizes(self):
        with pytest.raises(ValueError):
            aggregate([_result(), _result(n_tags=7, n_read=7)])


def test_exact_mean_is_statistics_mean_in_value_and_type():
    """Ints that divide evenly stay ints; everything else is the one
    correctly rounded division ``statistics.mean`` makes."""
    import math
    import statistics

    import numpy as np

    from repro.sim.result import exact_mean

    rng = np.random.default_rng(7)
    cases = [(0,), (3,), (3, 4), (1, 2, 2), (0.1, 0.2, 0.3), (-0.0,),
             (1e308, 1e308), (5e-324, 1.0), (math.inf, 1.0), (math.nan,),
             (True, False), (1, 2.5), (2 ** 80, 3)]
    for _ in range(3000):
        count = int(rng.integers(1, 7))
        if rng.random() < 0.5:
            top = 10 ** int(rng.integers(1, 13))
            cases.append(tuple(int(rng.integers(0, top))
                               for _ in range(count)))
        else:
            cases.append(tuple(math.ldexp(float(rng.random()),
                                          int(rng.integers(-1070, 1021)))
                               for _ in range(count)))
    for values in cases:
        expected = statistics.mean(values)
        got = exact_mean(values)
        assert type(got) is type(expected), values
        assert repr(got) == repr(expected), values


@pytest.mark.parametrize("runs", [1, 2, 3, 4])
def test_folding_a_few_runs_is_statistics_mean_and_stdev(runs):
    """A cell of 1-4 runs folds to ``statistics.mean``/``stdev`` of each
    column, value and type: the one-run base case of ``exact_mean``
    included, for int and float columns alike."""
    import math
    import random

    from repro.sim.result import RunMetrics, aggregate_metrics

    rng = random.Random(runs)
    throughputs = [0.0, -0.0, 1.0, 5e-324, 1e308, 0.1]
    for trial in range(300):
        values = [RunMetrics(
            throughput=(rng.choice(throughputs) if trial < 30 else
                        math.ldexp(rng.random(), rng.randint(-1070, 1020))),
            empty_slots=0 if trial % 2 else rng.randrange(10 ** 12),
            singleton_slots=rng.randrange(10 ** 6),
            collision_slots=rng.randrange(4) * 7,
            total_slots=rng.randrange(1, 10 ** 9),
            resolved_from_collision=2 ** 70 + rng.randrange(3))
            for _ in range(runs)]
        folded = aggregate_metrics("X", 100, values)
        columns = list(zip(*(value.to_list() for value in values)))
        got = [folded.throughput_mean, folded.empty_mean,
               folded.singleton_mean, folded.collision_mean,
               folded.total_slots_mean, folded.resolved_mean]
        for column, mean in zip(columns, got):
            expected = statistics.mean(column)
            assert type(mean) is type(expected), column
            assert repr(mean) == repr(expected), column
        if runs == 1:
            assert repr(folded.throughput_std) == "0.0"
        elif sys.version_info >= (3, 11):
            # Before 3.11 ``statistics.stdev`` rounds twice.
            assert repr(folded.throughput_std) == repr(
                statistics.stdev(columns[0])), columns[0]


_FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_SAMPLES = st.one_of(
    st.lists(st.integers(), min_size=2, max_size=100),
    st.lists(_FINITE_FLOATS, min_size=2, max_size=100),
    # Mixed magnitudes: tiny, service-sized and huge values side by side.
    st.lists(st.one_of(st.floats(1e-300, 1e-290), st.floats(100.0, 500.0),
                       st.floats(1e150, 1e160)), min_size=2, max_size=100),
)


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="statistics.stdev rounds twice before 3.11")
@given(values=_SAMPLES)
@settings(max_examples=300, deadline=None)
def test_exact_stdev_is_statistics_stdev_bit_for_bit(values):
    """From 3.11 ``statistics.stdev`` rounds once, as ``exact_stdev``
    does on every interpreter."""
    from repro.sim.result import exact_stdev

    try:
        expected = statistics.stdev(values)
    except OverflowError:  # the root itself exceeds the float range
        with pytest.raises(OverflowError):
            exact_stdev(values)
        return
    assert exact_stdev(values).hex() == expected.hex(), values
