"""Variance-aware adaptive sweep planner: sequential stopping per cell.

The paper averages a flat 100 runs per (protocol, N) cell regardless of how
noisy each cell actually is, so low-variance DFSA cells burn the same
compute as high-variance FCAT bootstrap cells.  This module replaces the
flat budget with *sequential stopping*: each cell executes in small batches
(through the executor's chunked fan-out, scalar or kernel engine), a
running mean/variance of the target metric is folded per cell via Welford
aggregation, and the cell closes once its confidence-interval half-width
reaches the requested relative precision -- subject to a ``min_runs`` floor
and a ``max_runs`` ceiling.  Budget freed by early-stopping cells is
reallocated to the highest-variance cells still open.

Determinism is preserved by construction.  Batch ``b`` of a cell consumes
``SeedSequence`` children ``[start, start + runs)`` of the *same* spawn a
fixed-budget run uses (``CellSpec.run_start`` slicing), so:

* a planner run at precision ``p`` is a prefix of the fixed-budget run and
  its per-run values are bit-identical to that run's prefix;
* the result is bit-reproducible at any ``--jobs`` (batch contents never
  depend on chunking, and the scheduler's decisions depend only on the
  folded values);
* a warm planner run replays the cold run's stopping decisions exactly,
  because cached batches return the identical values the cold run computed
  (the run-range entries of :mod:`repro.experiments.result_cache`).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Sequence

from repro.experiments.executor import CellSpec, execute_run_metrics
from repro.experiments.result_cache import ResultCache
from repro.obs import scope
from repro.sim.result import AggregateResult, RunMetrics, aggregate_metrics

__all__ = [
    "PlannerConfig",
    "PlannerStats",
    "Welford",
    "plan_cells",
]

#: Metrics a planner may target: the per-run scalars of ``RunMetrics``.
_METRIC_NAMES = tuple(f.name for f in dataclasses.fields(RunMetrics))

#: Sentinel relative half-width while it is undefined (fewer than two
#: runs, or a zero mean): JSON sinks cannot hold infinity.
UNDEFINED_WIDTH = -1.0


def _z_for_confidence(confidence: float) -> float:
    """Two-sided normal critical value for the given confidence level."""
    return NormalDist().inv_cdf(0.5 + confidence / 2.0)


@dataclass
class Welford:
    """Streaming mean/variance (Welford's online algorithm)."""

    n: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def add(self, value: float) -> None:
        self.n += 1
        delta = value - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (value - self.mean)

    @property
    def variance(self) -> float:
        """Sample variance; 0.0 until two values have been folded."""
        return self.m2 / (self.n - 1) if self.n > 1 else 0.0

    def half_width(self, z: float) -> float:
        """CI half-width ``z * sqrt(s^2 / n)``; 0.0 below two values."""
        if self.n < 2:
            return 0.0
        return z * math.sqrt(self.variance / self.n)

    def rel_half_width(self, z: float) -> float:
        """Half-width relative to ``|mean|``; :data:`UNDEFINED_WIDTH` when
        fewer than two values have landed or the mean is zero."""
        if self.n < 2 or self.mean == 0.0:
            return UNDEFINED_WIDTH
        return self.half_width(z) / abs(self.mean)


@dataclass
class PlannerStats:
    """Run accounting across every cell a planner config has closed."""

    cells: int = 0
    nominal_runs: int = 0
    assigned_runs: int = 0
    simulated_runs: int = 0
    cached_runs: int = 0
    stopped_precision: int = 0
    stopped_max_runs: int = 0
    stopped_budget: int = 0

    @property
    def reduction(self) -> float:
        """Nominal over assigned runs: the headline 2-5x savings factor."""
        return self.nominal_runs / self.assigned_runs \
            if self.assigned_runs else 0.0

    def summary(self) -> str:
        return (f"planner: {self.assigned_runs}/{self.nominal_runs} runs "
                f"({self.reduction:.2f}x reduction), "
                f"{self.simulated_runs} simulated + "
                f"{self.cached_runs} cached; {self.cells} cells: "
                f"{self.stopped_precision} precision / "
                f"{self.stopped_max_runs} max-runs / "
                f"{self.stopped_budget} budget")


@dataclass(frozen=True)
class PlannerConfig:
    """How to stop: the knobs of the sequential planner.

    ``precision`` is the target *relative* CI half-width of ``metric`` at
    the given ``confidence``.  ``max_runs`` defaults to twice each cell's
    nominal budget, which is where reallocation saturates; ``stats``
    accumulates across every ``plan_cells`` call sharing this config, so a
    multi-sweep driver reports one combined summary.
    """

    precision: float
    confidence: float = 0.95
    min_runs: int = 8
    batch_runs: int = 8
    max_runs: int | None = None
    metric: str = "throughput"
    stats: PlannerStats = field(default_factory=PlannerStats, compare=False)

    def __post_init__(self) -> None:
        if self.precision <= 0:
            raise ValueError("precision must be > 0")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        if self.min_runs < 2:
            raise ValueError("min_runs must be >= 2 (variance needs two)")
        if self.batch_runs < 1:
            raise ValueError("batch_runs must be >= 1")
        if self.max_runs is not None and self.max_runs < self.min_runs:
            raise ValueError("max_runs must be >= min_runs")
        if self.metric not in _METRIC_NAMES:
            raise ValueError(f"metric must be one of {_METRIC_NAMES}")


@dataclass
class _CellState:
    """One cell's progress through the sequential-stopping loop."""

    index: int
    spec: CellSpec
    ceiling: int
    welford: Welford = field(default_factory=Welford)
    values: list[RunMetrics] = field(default_factory=list)
    batches: int = 0
    simulated: int = 0
    cached: int = 0
    reason: str | None = None

    @property
    def open(self) -> bool:
        return self.reason is None


def _close(cell: _CellState, reason: str, planner: PlannerConfig,
           z: float) -> None:
    """Mark a cell stopped and account/emit its closing telemetry."""
    cell.reason = reason
    stats = planner.stats
    stats.cells += 1
    if reason == "precision":
        stats.stopped_precision += 1
    elif reason == "max_runs":
        stats.stopped_max_runs += 1
    else:
        stats.stopped_budget += 1
    rel = cell.welford.rel_half_width(z)
    spec = cell.spec
    scope.emit("planner_stop", protocol=spec.protocol.name,
               n_tags=spec.n_tags, seed=spec.seed, reason=reason,
               runs_used=cell.welford.n, nominal_runs=spec.runs,
               simulated_runs=cell.simulated, cached_runs=cell.cached,
               mean=cell.welford.mean, rel_half_width=rel)
    scope.inc(f"planner.stopped.{reason}")
    scope.observe_value("planner.cell_runs", cell.welford.n)
    if rel != UNDEFINED_WIDTH:
        scope.observe_value("planner.rel_half_width", rel)


def plan_cells(specs: Sequence[CellSpec], planner: PlannerConfig,
               jobs: int = 1,
               cache: ResultCache | None = None) -> list[AggregateResult]:
    """Adaptively compute every cell, in ``specs`` order.

    Round-based scheduler over a shared budget of ``sum(spec.runs)``
    nominal runs: each round assigns one batch to every open cell --
    cells below the ``min_runs`` floor first, then widest relative CI
    excess first -- until the budget is spent.  A batch is runs
    ``[start, start + batch)`` of the cell's seed spawn, executed through
    :func:`repro.experiments.executor.execute_run_metrics` (so batches of
    different cells fan out across workers together and cached batches
    are served without simulating).  After each fold the cell is closed
    when its relative CI half-width reaches ``planner.precision``
    (reason ``"precision"``), its ceiling is hit (``"max_runs"``), or the
    shared budget runs dry (``"budget"``).
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    for spec in specs:
        if spec.run_start:
            raise ValueError("planner cells must start at run 0; "
                             "batching is the planner's job")
    z = _z_for_confidence(planner.confidence)
    cells = []
    for index, spec in enumerate(specs):
        ceiling = planner.max_runs if planner.max_runs is not None \
            else 2 * spec.runs
        ceiling = max(ceiling, min(planner.min_runs, 2 * spec.runs))
        cells.append(_CellState(index=index, spec=spec, ceiling=ceiling))
    budget = sum(spec.runs for spec in specs)
    planner.stats.nominal_runs += budget
    floor = planner.min_runs

    def priority(cell: _CellState) -> tuple:
        below_floor = cell.welford.n < min(floor, cell.ceiling)
        rel = cell.welford.rel_half_width(z)
        excess = math.inf if rel == UNDEFINED_WIDTH \
            else rel - planner.precision
        return (0 if below_floor else 1, -excess, cell.index)

    while True:
        open_cells = [cell for cell in cells if cell.open]
        if not open_cells:
            break
        if budget <= 0:
            for cell in open_cells:
                _close(cell, "budget", planner, z)
            break
        assignments: list[tuple[_CellState, CellSpec]] = []
        unstarted = sum(1 for cell in open_cells if cell.welford.n == 0)
        for cell in sorted(open_cells, key=priority):
            if budget <= 0:
                break
            if cell.welford.n == 0:
                unstarted -= 1
            # Hold back one run for each cell still without any, so a
            # budget tighter than the first batches (sum(runs) >= cells)
            # never closes a cell empty.
            size = min(planner.batch_runs, cell.ceiling - cell.welford.n,
                       budget - unstarted)
            batch = dataclasses.replace(cell.spec, run_start=cell.welford.n,
                                        runs=size)
            assignments.append((cell, batch))
            budget -= size
        batches = execute_run_metrics([batch for _, batch in assignments],
                                      jobs=jobs, cache=cache)
        for (cell, batch_spec), batch in zip(assignments, batches):
            for value in batch.values:
                cell.welford.add(getattr(value, planner.metric))
            cell.values.extend(batch.values)
            cell.batches += 1
            if batch.cached:
                cell.cached += len(batch.values)
            else:
                cell.simulated += len(batch.values)
            rel = cell.welford.rel_half_width(z)
            spec = cell.spec
            scope.emit("planner_batch", protocol=spec.protocol.name,
                       n_tags=spec.n_tags, seed=spec.seed,
                       batch_index=cell.batches - 1,
                       start=batch_spec.run_start, runs=len(batch.values),
                       cached=batch.cached, mean=cell.welford.mean,
                       rel_half_width=rel)
            if rel != UNDEFINED_WIDTH:
                scope.observe_value("planner.batch_rel_half_width", rel)
            if cell.welford.n >= min(floor, cell.ceiling) \
                    and rel != UNDEFINED_WIDTH and rel <= planner.precision:
                _close(cell, "precision", planner, z)
            elif cell.welford.n >= cell.ceiling:
                _close(cell, "max_runs", planner, z)
    stats = planner.stats
    for cell in cells:
        stats.assigned_runs += cell.welford.n
        stats.simulated_runs += cell.simulated
        stats.cached_runs += cell.cached
    if cache is not None:
        cache.save()
    return [aggregate_metrics(cell.spec.protocol.name, cell.spec.n_tags,
                              cell.values)
            for cell in cells]
