"""Parallel, cached execution engine for experiment sweeps.

The paper's evaluation is embarrassingly parallel -- 100 independent runs
per (protocol, N) cell, dozens of independent cells per table -- yet the
seed discipline must survive the fan-out: run ``i`` of a cell must see the
``i``-th child of ``SeedSequence(cell_seed)`` no matter which process
computes it.  The engine therefore spawns every child seed *in the parent*
(:func:`repro.experiments.runner.spawn_run_seeds`), ships contiguous chunks
of children to a process pool, and reassembles the per-run results in serial
order before aggregating -- making ``jobs=N`` bit-for-bit identical to
``jobs=1``.

Chunked dispatch amortizes pickling: a task carries one protocol instance
plus a slice of child seeds instead of one pickle round-trip per run.  The
pool prefers ``fork`` (cheap, inherits the imported simulator) and falls
back to ``spawn`` where fork is unavailable; ``jobs=1`` -- or a platform
with no multiprocessing start method at all -- runs the exact serial loop.

On top sits the content-addressed result cache
(:mod:`repro.experiments.result_cache`): cells whose runs are already
stored are folded from them without simulating, and only the misses enter
the pool.  ``python -m repro.experiments --jobs N`` and the inventory
service drive this engine; the committed `BENCH_3.json` records measured
speedups.
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Sequence

import numpy as np

from repro.air.timing import ICODE_TIMING, TimingModel
from repro.experiments.result_cache import (ResultCache, cell_address,
                                            cell_fields, range_address)
from repro.experiments.runner import run_single, spawn_run_seeds
from repro.kernels.engine import ENGINES
from repro.obs import scope
from repro.obs.manifest import CellRun
from repro.obs.scope import Observation
from repro.sim.base import TagReadingProtocol
from repro.sim.channel import PERFECT_CHANNEL, ChannelModel
from repro.sim.result import (
    AggregateResult,
    ReadingResult,
    RunMetrics,
    aggregate_metrics,
    run_metrics,
)

__all__ = [
    "CellSpec",
    "ChunkOutcome",
    "ExecutionPlan",
    "RunBatch",
    "default_jobs",
    "execute_cells",
    "execute_run_metrics",
    "run_chunk",
]


@dataclass(frozen=True)
class CellSpec:
    """One (protocol, N) cell: the unit of caching and of sweep fan-out."""

    protocol: TagReadingProtocol
    n_tags: int
    runs: int
    seed: int
    channel: ChannelModel = PERFECT_CHANNEL
    timing: TimingModel = ICODE_TIMING
    #: ``"kernel"`` (batched frame-at-once sessions, kernel-v2 seed
    #: semantics; ``run_batch`` falls back to the scalar sessions for
    #: configurations no kernel implements) or ``"scalar"`` (the per-slot
    #: reference).  Part of the cache key: the engines are statistically,
    #: not bitwise, equivalent.
    engine: str = "kernel"
    #: First run index of this (possibly partial) cell.  A batch covering
    #: runs ``[run_start, run_start + runs)`` consumes exactly those
    #: ``SeedSequence`` children of the cell seed -- the planner's
    #: prefix-determinism contract rests on this slicing.
    run_start: int = 0

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {', '.join(ENGINES)}, "
                             f"got {self.engine!r}")

    # Both addresses are memoised on the spec object (a spec is frozen and
    # its protocol, channel and timing are never mutated), never in a
    # table keyed by value: equal specs can render differently.

    def _fields(self) -> dict:
        """The canonical fields both addresses derive from, built once."""
        fields = self.__dict__.get("_cell_fields")
        if fields is None:
            fields = cell_fields(self.protocol, self.n_tags, self.seed,
                                 self.channel, self.timing, self.engine)
            object.__setattr__(self, "_cell_fields", fields)
        return fields

    def key(self) -> str:
        """The cell's content address (see ``result_cache.cell_address``)."""
        key = self.__dict__.get("_key")
        if key is None:
            key = cell_address(self._fields(), self.runs, self.run_start)
            object.__setattr__(self, "_key", key)
        return key

    def range_key(self) -> str:
        """The base address this cell's run-range entries file under."""
        key = self.__dict__.get("_range_key")
        if key is None:
            key = range_address(self._fields())
            object.__setattr__(self, "_range_key", key)
        return key


@dataclass(frozen=True)
class ExecutionPlan:
    """How to execute: worker count plus an optional result cache.

    Threaded through every ``run_*`` experiment function so the CLI's
    ``--jobs`` / ``--no-result-cache`` flags reach each ``sweep`` /
    ``run_cell`` call without widening every signature twice.
    """

    jobs: int = 1
    cache: ResultCache | None = field(default=None, compare=False)
    #: When set, ``execute_cells`` routes through the adaptive sequential
    #: planner (``repro.experiments.planner``) instead of the fixed budget.
    planner: "PlannerConfig | None" = field(default=None, compare=False)

    def describe(self) -> str:
        mode = f"{self.jobs} worker(s)" if self.jobs > 1 else "serial"
        described = f"{mode}, cache {'on' if self.cache is not None else 'off'}"
        if self.planner is not None:
            described += f", adaptive precision {self.planner.precision:g}"
        return described


#: The plan every experiment uses unless the caller supplies one.
SERIAL_PLAN = ExecutionPlan()


def default_jobs() -> int:
    """A sensible ``--jobs`` default: every core the scheduler grants us."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux hosts
        return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class _ChunkTask:
    """A contiguous slice of one cell's runs, shipped to one worker."""

    cell_index: int
    chunk_index: int
    protocol: TagReadingProtocol
    n_tags: int
    children: tuple[np.random.SeedSequence, ...]
    channel: ChannelModel
    timing: TimingModel
    #: The cell's engine: ``"kernel"`` dispatches the chunk to
    #: ``repro.kernels.engine:run_batch`` (which itself falls back to
    #: ``run_single`` for unsupported configurations), ``"scalar"`` loops
    #: ``run_single``.
    engine: str
    #: Collect telemetry inside the worker and ship it back.  Decided in
    #: the parent (workers spawned without the parent's scope still know).
    collect: bool = False
    #: ``time.monotonic()`` at task creation; queue wait is measured from
    #: here (the monotonic clock is system-wide, so worker processes share
    #: it with the parent).
    submitted_monotonic: float = 0.0


@dataclass
class ChunkOutcome:
    """What one chunk returns: results plus worker-side telemetry.

    ``observation`` holds the metrics/events collected *inside* the worker
    (``None`` when observability is off); the parent folds these back in
    deterministic chunk order, and the metrics merge itself is
    order-independent, so telemetry never disturbs the parallel == serial
    bit-for-bit guarantee.
    """

    results: list[ReadingResult]
    observation: Observation | None
    duration_s: float
    queue_wait_s: float


def run_chunk(task: _ChunkTask) -> ChunkOutcome:
    """Worker entry point: run one chunk's sessions in seed order.

    In a worker process this is the outermost frame above the seeded
    simulation path; the lint engine's fork-safety rule walks from here.
    """
    started = time.perf_counter()
    queue_wait = max(time.monotonic() - task.submitted_monotonic, 0.0) \
        if task.submitted_monotonic else 0.0
    observation: Observation | None = None
    if task.engine == "kernel":
        from repro.kernels.engine import run_batch

        def compute() -> list[ReadingResult]:
            return run_batch(task.protocol, task.n_tags, task.children,
                             channel=task.channel, timing=task.timing)
    else:
        def compute() -> list[ReadingResult]:
            return [run_single(task.protocol, task.n_tags, child,
                               channel=task.channel, timing=task.timing)
                    for child in task.children]
    if task.collect:
        # A private collector per chunk, whether this frame runs in a pool
        # worker or in-process: the parent merges outcomes identically
        # either way, so serial and parallel runs emit the same stream.
        with scope.observe() as observation:
            results = compute()
    else:
        results = compute()
    return ChunkOutcome(results=results, observation=observation,
                        duration_s=time.perf_counter() - started,
                        queue_wait_s=queue_wait)


def _chunk_tasks(specs: Sequence[CellSpec], indices: Sequence[int],
                 jobs: int, collect: bool = False) -> list[_ChunkTask]:
    """Split every pending cell's runs into chunks for the pool.

    Chunk boundaries are pure mechanics -- results are reassembled by
    ``(cell_index, chunk_index)`` into serial run order -- so the size only
    tunes pickling overhead vs load balance: aim for a few tasks per worker,
    never more chunks than runs.
    """
    total_runs = sum(specs[i].runs for i in indices)
    target_tasks = max(1, 4 * jobs)
    chunk_size = max(1, math.ceil(total_runs / target_tasks))
    submitted = time.monotonic()
    tasks: list[_ChunkTask] = []
    for cell_index in indices:
        spec = specs[cell_index]
        children = spawn_run_seeds(spec.seed, spec.runs, spec.run_start)
        for chunk_index, start in enumerate(
                range(0, spec.runs, chunk_size)):
            tasks.append(_ChunkTask(
                cell_index=cell_index,
                chunk_index=chunk_index,
                protocol=spec.protocol,
                n_tags=spec.n_tags,
                children=tuple(children[start:start + chunk_size]),
                channel=spec.channel,
                timing=spec.timing,
                engine=spec.engine,
                collect=collect,
                submitted_monotonic=submitted,
            ))
    return tasks


def _pool_context() -> multiprocessing.context.BaseContext | None:
    """Prefer fork (inherits the imported simulator); fall back to spawn."""
    methods = multiprocessing.get_all_start_methods()
    for method in ("fork", "spawn"):
        if method in methods:
            return multiprocessing.get_context(method)
    return None


def _run_tasks(tasks: list[_ChunkTask], jobs: int,
               obs: Observation | None = None) -> list[ChunkOutcome]:
    """Run chunk tasks serially or across a pool; order follows ``tasks``."""
    context = _pool_context() if jobs > 1 else None
    if context is None or jobs <= 1 or len(tasks) <= 1:
        if obs is not None:
            obs.set_gauge("executor.workers", 1)
        return [run_chunk(task) for task in tasks]
    workers = min(jobs, len(tasks))
    if obs is not None:
        obs.set_gauge("executor.workers", workers)
        obs.emit("pool_start", workers=workers, tasks=len(tasks),
                 start_method=context.get_start_method())
    with context.Pool(processes=workers) as pool:
        return pool.map(run_chunk, tasks, chunksize=1)


def _record_cell(obs: Observation, spec: CellSpec, key: str,
                 elapsed_s: float, cached: bool) -> None:
    """One cell's manifest record plus its ``cell_done`` event."""
    obs.cells.append(CellRun(
        key=key, protocol=spec.protocol.name, n_tags=spec.n_tags,
        runs=spec.runs, seed=spec.seed, elapsed_s=elapsed_s, cached=cached))
    obs.emit("cell_done", key=key, protocol=spec.protocol.name,
             n_tags=spec.n_tags, runs=spec.runs, seed=spec.seed,
             elapsed_s=elapsed_s, cached=cached)


def _compute_pending(specs: Sequence[CellSpec], pending: Sequence[int],
                     jobs: int, obs: Observation | None,
                     ) -> dict[int, tuple[list[ReadingResult], float]]:
    """Simulate the pending cells; per-index results in serial run order.

    The shared fan-out/fold both :func:`execute_cells` and
    :func:`execute_run_metrics` rest on: chunk, dispatch, merge worker
    telemetry in deterministic task order, reassemble each cell's runs by
    ``(cell_index, chunk_index)``.
    """
    tasks = _chunk_tasks(specs, pending, jobs, collect=obs is not None)
    outcomes = _run_tasks(tasks, jobs, obs)
    per_cell: dict[int, list[tuple[int, ChunkOutcome]]] = {
        index: [] for index in pending}
    for task, outcome in zip(tasks, outcomes):
        per_cell[task.cell_index].append((task.chunk_index, outcome))
        if obs is not None:
            if outcome.observation is not None:
                # Deterministic task order here; the metrics fold is
                # commutative besides, so chunk completion order can
                # never leak into the merged registry.
                obs.merge(outcome.observation)
            obs.count("executor.chunks")
            obs.observe_value("chunk.duration_s", outcome.duration_s)
            obs.observe_value("chunk.queue_wait_s",
                              outcome.queue_wait_s)
            obs.emit("chunk_done", cell_index=task.cell_index,
                     chunk_index=task.chunk_index,
                     runs=len(task.children),
                     duration_s=outcome.duration_s,
                     queue_wait_s=outcome.queue_wait_s)
    folded: dict[int, tuple[list[ReadingResult], float]] = {}
    for index in pending:
        ordered: list[ReadingResult] = []
        elapsed = 0.0
        for _, outcome in sorted(per_cell[index], key=itemgetter(0)):
            ordered.extend(outcome.results)
            elapsed += outcome.duration_s
        folded[index] = (ordered, elapsed)
    return folded


def execute_cells(specs: Sequence[CellSpec], jobs: int = 1,
                  cache: ResultCache | None = None,
                  planner: "PlannerConfig | None" = None,
                  ) -> list[AggregateResult]:
    """Compute every cell, in ``specs`` order, parallel- and cache-aware.

    The contract: the returned list is element-for-element identical to
    the serial loop of each cell's engine -- ``run_batch`` over
    ``spawn_run_seeds(...)``, or ``run_single`` per child on the scalar
    engine -- for any ``jobs`` and any cache state.  Under an
    active ``repro.obs`` scope the executor additionally reports per-chunk
    worker accounting and per-cell timings -- including cache-served cells,
    which would otherwise leave no telemetry at all on a warm run.

    With ``planner`` set, dispatches to the adaptive sequential planner
    (:func:`repro.experiments.planner.plan_cells`): each cell then runs
    only until its confidence interval reaches the requested precision.

    The cache holds run ranges only: a cell is served when its runs
    ``[run_start, run_start + runs)`` are stored, whoever stored them --
    this executor, a planner batch, a longer cell of the same seed -- and
    folded by :func:`repro.sim.result.aggregate_metrics`, bit-identically,
    because the fold is a pure function of the per-run
    :class:`RunMetrics`.  A miss still reuses a stored contiguous prefix
    and simulates only the suffix.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if planner is not None:
        from repro.experiments.planner import plan_cells
        return plan_cells(specs, planner, jobs=jobs, cache=cache)
    obs = scope.active()
    results: list[AggregateResult | None] = [None] * len(specs)
    pending: list[int] = []
    #: index -> cached prefix metrics; the pool simulates only the suffix.
    prefixes: dict[int, list[RunMetrics]] = {}
    work: list[CellSpec] = list(specs)
    for index, spec in enumerate(specs):
        if cache is not None:
            key, base = spec.key(), spec.range_key()
            lookup_started = time.perf_counter()
            hit = cache.lookup(key, base, spec.run_start,
                               spec.run_start + spec.runs)
            if hit is not None:
                results[index] = aggregate_metrics(
                    spec.protocol.name, spec.n_tags, hit)
                if obs is not None:
                    obs.count("executor.cells.cached")
                    _record_cell(obs, spec, key,
                                 time.perf_counter() - lookup_started,
                                 cached=True)
                continue
            if spec.run_start == 0:
                prefix = cache.run_prefix(base, spec.runs)
                if prefix:
                    prefixes[index] = prefix
                    work[index] = dataclasses.replace(
                        spec, run_start=len(prefix),
                        runs=spec.runs - len(prefix))
        pending.append(index)
    if pending:
        folded = _compute_pending(work, pending, jobs, obs)
        for index in pending:
            ordered, elapsed = folded[index]
            computed = [run_metrics(result) for result in ordered]
            values = prefixes.get(index, []) + computed
            spec = specs[index]
            results[index] = aggregate_metrics(
                spec.protocol.name, spec.n_tags, values)
            if obs is not None:
                obs.count("executor.cells.computed")
                _record_cell(obs, spec, spec.key(), elapsed, cached=False)
            if cache is not None:
                cache.store_runs(spec.range_key(), work[index].run_start,
                                 computed)
        if cache is not None:
            cache.save()
    return [result for result in results if result is not None]


@dataclass
class RunBatch:
    """One batch's per-run metrics plus where they came from."""

    values: list[RunMetrics]
    cached: bool
    elapsed_s: float = 0.0


def execute_run_metrics(specs: Sequence[CellSpec], jobs: int = 1,
                        cache: ResultCache | None = None) -> list[RunBatch]:
    """Compute per-run metric vectors for every (partial) cell in ``specs``.

    The planner's substrate: each spec is typically one batch -- runs
    ``[run_start, run_start + runs)`` of some cell -- and the returned
    vectors are exactly what :func:`repro.sim.result.aggregate_metrics`
    folds, so sequential stopping composes aggregates bit-identical to a
    fixed-budget run.  Batches already in the cache's run-range store are
    served without simulating; computed batches are stored for the next
    (warm or fixed-budget) run.  Manifest/cell accounting mirrors
    :func:`execute_cells`, with the batch's range-qualified key.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    obs = scope.active()
    batches: list[RunBatch | None] = [None] * len(specs)
    pending: list[int] = []
    for index, spec in enumerate(specs):
        if cache is not None:
            lookup_started = time.perf_counter()
            hit = cache.lookup_runs(spec.range_key(), spec.run_start,
                                    spec.run_start + spec.runs)
            if hit is not None:
                elapsed = time.perf_counter() - lookup_started
                batches[index] = RunBatch(values=hit, cached=True,
                                          elapsed_s=elapsed)
                if obs is not None:
                    obs.count("executor.batches.cached")
                    _record_cell(obs, spec, spec.key(), elapsed, cached=True)
                continue
        pending.append(index)
    if pending:
        folded = _compute_pending(specs, pending, jobs, obs)
        for index in pending:
            ordered, elapsed = folded[index]
            spec = specs[index]
            values = [run_metrics(result) for result in ordered]
            batches[index] = RunBatch(values=values, cached=False,
                                      elapsed_s=elapsed)
            if obs is not None:
                obs.count("executor.batches.computed")
                _record_cell(obs, spec, spec.key(), elapsed, cached=False)
            if cache is not None:
                cache.store_runs(spec.range_key(), spec.run_start, values)
        if cache is not None:
            cache.save()
    return [batch for batch in batches if batch is not None]
