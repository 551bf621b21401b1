"""Slot accounting and results of a reading session.

A :class:`ReadingResult` captures everything the paper's tables report: the
empty/singleton/collision slot split (Table II), the number of IDs recovered
from collision records (Table III), and -- through the timing model -- the
reading throughput in tags per second (Table I).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from math import isqrt
from operator import attrgetter, floordiv, itemgetter, mul
from statistics import mean, stdev
from typing import Any, Sequence

from repro.air.timing import ICODE_TIMING, TimingModel


@dataclass
class ReadingResult:
    """Outcome of one reading session of one protocol."""

    protocol: str
    n_tags: int
    n_read: int
    empty_slots: int = 0
    singleton_slots: int = 0
    collision_slots: int = 0
    #: Reader advertisements broadcast (per slot for SCAT, per frame for FCAT).
    advertisements: int = 0
    #: Resolved collision records announced by 23-bit slot index (FCAT).
    index_announcements: int = 0
    #: Resolved tags announced by full 96-bit ID (SCAT).
    id_announcements: int = 0
    #: IDs recovered by resolving collision records rather than singletons.
    resolved_from_collision: int = 0
    #: Total tag transmissions over the session (battery cost: the paper's
    #: active tags pay per ID broadcast).
    tag_transmissions: int = 0
    frames: int = 0
    #: Air time spent before the session proper (e.g. SCAT's cardinality
    #: pre-estimation probe frames).
    presession_s: float = 0.0
    timing: TimingModel = ICODE_TIMING
    #: Per-frame tag-count estimates (FCAT's embedded estimator trace).
    estimate_trace: list[float] = field(default_factory=list)
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def total_slots(self) -> int:
        return self.empty_slots + self.singleton_slots + self.collision_slots

    @property
    def duration_s(self) -> float:
        """Session wall-clock per the timing model, announcements included."""
        return self.presession_s + self.timing.session_seconds(
            slots=self.total_slots,
            advertisements=self.advertisements,
            index_announcements=self.index_announcements,
            id_announcements=self.id_announcements,
        )

    @property
    def throughput(self) -> float:
        """Unique tag IDs collected per second (the paper's headline metric)."""
        duration = self.duration_s
        if duration <= 0:
            raise ValueError("session has zero duration")
        return self.n_read / duration

    @property
    def complete(self) -> bool:
        """Whether every tag in the population was identified."""
        return self.n_read == self.n_tags

    def summary(self) -> str:
        return (f"{self.protocol}: read {self.n_read}/{self.n_tags} tags in "
                f"{self.total_slots} slots ({self.empty_slots} empty / "
                f"{self.singleton_slots} singleton / {self.collision_slots} "
                f"collision), {self.throughput:.1f} tags/s")


@dataclass(frozen=True)
class RunMetrics:
    """The per-run scalars an :class:`AggregateResult` is computed from.

    This is the unit the result cache stores, in run-seed ranges: six
    JSON-exact numbers per run.  Because floats round-trip
    through JSON bit-for-bit and :func:`aggregate` is defined over exactly
    these values, an aggregate reassembled from cached ranges is identical
    to one computed from the live :class:`ReadingResult` objects.
    """

    throughput: float
    empty_slots: int
    singleton_slots: int
    collision_slots: int
    total_slots: int
    resolved_from_collision: int

    def to_list(self) -> list:
        return [self.throughput, self.empty_slots, self.singleton_slots,
                self.collision_slots, self.total_slots,
                self.resolved_from_collision]

    @classmethod
    def from_list(cls, values: list) -> "RunMetrics":
        throughput, empty, singleton, collision, total, resolved = values
        return cls(throughput=float(throughput), empty_slots=int(empty),
                   singleton_slots=int(singleton),
                   collision_slots=int(collision), total_slots=int(total),
                   resolved_from_collision=int(resolved))


def run_metrics(result: ReadingResult) -> RunMetrics:
    """Project one session onto the scalars the aggregate depends on."""
    return RunMetrics(
        throughput=result.throughput,
        empty_slots=result.empty_slots,
        singleton_slots=result.singleton_slots,
        collision_slots=result.collision_slots,
        total_slots=result.total_slots,
        resolved_from_collision=result.resolved_from_collision,
    )


@dataclass(frozen=True)
class AggregateResult:
    """Mean/stddev of a metric across repeated runs (paper averages 100)."""

    protocol: str
    n_tags: int
    runs: int
    throughput_mean: float
    throughput_std: float
    empty_mean: float
    singleton_mean: float
    collision_mean: float
    total_slots_mean: float
    resolved_mean: float

    @property
    def resolved_fraction(self) -> float:
        """Fraction of IDs recovered from collision slots (Table III)."""
        return self.resolved_mean / self.n_tags if self.n_tags else 0.0


def aggregate(results: list[ReadingResult]) -> AggregateResult:
    """Collapse repeated runs of one (protocol, N) cell into summary stats."""
    if not results:
        raise ValueError("need at least one result to aggregate")
    protocols = {r.protocol for r in results}
    sizes = {r.n_tags for r in results}
    if len(protocols) != 1 or len(sizes) != 1:
        raise ValueError("results mix protocols or population sizes")
    return aggregate_metrics(protocols.pop(), sizes.pop(),
                             [run_metrics(r) for r in results])


#: A run's metrics in :class:`AggregateResult` column order.
_COLUMNS = attrgetter("throughput", "empty_slots", "singleton_slots",
                      "collision_slots", "total_slots",
                      "resolved_from_collision")


def _float_ratios(values: Sequence) -> tuple[list[int], int] | None:
    """Finite floats as integer numerators over one common denominator.

    Every denominator is a power of two, so the largest is the lcm of
    them all.  None when some value is infinite or NaN.
    """
    try:
        ratios = list(map(float.as_integer_ratio, values))
    except (OverflowError, ValueError):  # inf or nan
        return None
    denominators = list(map(itemgetter(1), ratios))
    common = max(denominators)
    return list(map(mul, map(itemgetter(0), ratios),
                    map(floordiv, repeat(common), denominators))), common


def exact_mean(values: Sequence) -> int | float:
    """``statistics.mean(values)``: the same value and the same type.

    ``statistics.mean`` sums exact ratios as ``Fraction`` objects.  Over
    Python ints or finite floats the same exact sum is an integer ratio:
    ints sum as they are, floats over their common power-of-two
    denominator.  The mean is then that ratio over ``len(values)``: an
    int when the ints divide evenly (as ``statistics.mean`` returns),
    else one correctly rounded division, as ``float(Fraction)`` does.
    Anything else -- bools, numpy scalars, mixed types, infinities --
    goes to ``statistics.mean`` itself -- except that a lone plain int
    or nonzero float, the fold of every one-run cell, is returned as it
    is, which is what ``statistics.mean`` returns for it (a lone ``-0.0``
    still folds to ``0.0``).
    """
    if len(values) == 1:
        (value,) = values
        if type(value) is int or (type(value) is float and value):
            return value
    kinds = set(map(type, values))
    if kinds == {int}:
        total = sum(values)
        count = len(values)
        return total // count if total % count == 0 else total / count
    exact = _float_ratios(values) if kinds == {float} else None
    if exact is None:
        return mean(values)
    numerators, common = exact
    return sum(numerators) / (common * len(values))


def exact_stdev(values: Sequence) -> float:
    """``statistics.stdev(values)`` with one correct rounding everywhere.

    From Python 3.11 ``statistics.stdev`` takes the square root of the
    exact sample variance with one correct rounding; before 3.11 it
    rounds the variance to a float first and then takes ``math.sqrt``.
    Over plain ints or finite floats the variance is an integer ratio
    ``n / m``, and this takes its square root the 3.11 way: an ``isqrt``
    carrying at least 109 bits, rounded to odd, then one rounding to a
    float -- so every interpreter returns the same bits.  Anything else,
    and fewer than two values, goes to ``statistics.stdev`` itself.
    """
    kinds = set(map(type, values))
    if kinds == {int}:
        exact = list(values), 1
    else:
        exact = _float_ratios(values) if kinds == {float} else None
    if exact is None or len(values) < 2:
        return stdev(values)
    numerators, common = exact
    count = len(values)
    total = sum(numerators)
    n = count * sum(x * x for x in numerators) - total * total
    m = count * (count - 1) * common * common
    # Scale n / m by 4**-shift so the integer root carries 2*53 + 3 bits.
    shift = (n.bit_length() - m.bit_length() - 109) // 2
    if shift >= 0:
        m <<= 2 * shift
    else:
        n <<= -2 * shift
    root = isqrt(n // m)
    root |= root * root * m != n  # round to odd: inexact roots get a 1
    if shift >= 0:
        return float(root << shift)
    return root / (1 << -shift)


def aggregate_metrics(protocol: str, n_tags: int,
                      values: list[RunMetrics]) -> AggregateResult:
    """:func:`aggregate` over pre-projected per-run metric vectors.

    ``aggregate`` delegates here, so a cell assembled from cached
    :class:`RunMetrics` ranges and one computed from live results agree
    bit-for-bit -- the invariant every result-cache hit, the planner's
    batches and the executor's prefix reuse rest on.  Means are :func:`exact_mean`, which
    is ``statistics.mean`` without its ``Fraction`` objects, and the
    spread is :func:`exact_stdev`, which rounds as ``statistics.stdev``
    does from Python 3.11 on every interpreter.
    """
    if not values:
        raise ValueError("need at least one result to aggregate")
    (throughputs, empty, singleton, collision, total_slots,
     resolved) = zip(*map(_COLUMNS, values))
    return AggregateResult(
        protocol=protocol,
        n_tags=n_tags,
        runs=len(values),
        throughput_mean=exact_mean(throughputs),
        throughput_std=(exact_stdev(throughputs)
                        if len(throughputs) > 1 else 0.0),
        empty_mean=exact_mean(empty),
        singleton_mean=exact_mean(singleton),
        collision_mean=exact_mean(collision),
        total_slots_mean=exact_mean(total_slots),
        resolved_mean=exact_mean(resolved),
    )
