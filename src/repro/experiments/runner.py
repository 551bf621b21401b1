"""Shared sweep machinery for the experiment runners.

The paper averages 100 independent simulation runs per data point.  Here a
"cell" is one (protocol, population size) pair; each run draws a *fresh*
population (tree protocols are deterministic given the IDs, so reusing one
population would zero out their variance) and an independent child RNG, all
derived from a single seed for reproducibility.

This module owns the *semantics* of a cell -- how run seeds derive from the
cell seed and what one run does -- while :mod:`repro.experiments.executor`
owns the *mechanics* of getting many cells computed (process-pool fan-out,
content-addressed result caching).  Keeping the seed derivation here, and
having the executor consume pre-spawned children, is what makes parallel
results bit-for-bit identical to serial ones.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.air.timing import ICODE_TIMING, TimingModel
from repro.sim.base import TagReadingProtocol
from repro.sim.channel import PERFECT_CHANNEL, ChannelModel
from repro.sim.population import TagPopulation
from repro.sim.result import AggregateResult, ReadingResult

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.experiments.planner import PlannerConfig
    from repro.experiments.result_cache import ResultCache

#: Seed offsets decorrelating the cells of a sweep grid (column = protocol,
#: row = population size); shared with the cache key derivation.
SWEEP_COLUMN_STRIDE = 10_007
SWEEP_ROW_STRIDE = 101


def rng_from_seed(seed: int | np.random.SeedSequence) -> np.random.Generator:
    """Mint the Generator for one experiment run from its derived seed.

    This module is one of the designated seed-spawning entry points (lint
    rule ``rng-construction``); experiment code everywhere else must obtain
    Generators here so all randomness flows from config seeds.
    """
    return np.random.default_rng(seed)


def spawn_run_seeds(seed: int, runs: int,
                    start: int = 0) -> list[np.random.SeedSequence]:
    """Run seeds ``start .. start + runs`` of one cell.

    Child ``i`` is ``SeedSequence(seed, spawn_key=(i,))``: the ``i``-th
    child of ``SeedSequence(seed).spawn(...)``, built directly, so a batch
    that starts at run ``start`` needs no spawned prefix.  Every execution
    path -- serial loop, process-pool chunk, cache key derivation -- must
    obtain run seeds through this function so that run ``i`` of a cell
    sees the same RNG stream no matter who computes it.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    return [np.random.SeedSequence(seed, spawn_key=(index,))
            for index in range(start, start + runs)]


def run_single(protocol: TagReadingProtocol, n_tags: int,
               child: np.random.SeedSequence,
               channel: ChannelModel = PERFECT_CHANNEL,
               timing: TimingModel = ICODE_TIMING) -> ReadingResult:
    """One independent session: fresh population, fresh Generator.

    This is the unit of work the parallel executor ships to workers; it must
    stay a pure function of ``(protocol, n_tags, child, channel, timing)``.
    """
    rng = rng_from_seed(child)
    population = TagPopulation.random(n_tags, rng)
    result = protocol.read_all(population, rng, channel=channel,
                               timing=timing)
    if not result.complete and channel == PERFECT_CHANNEL:
        raise RuntimeError(
            f"{protocol.name} read {result.n_read}/{result.n_tags} tags "
            "on a perfect channel")
    protocol.observe_session(result)
    return result


def run_cell(protocol: TagReadingProtocol, n_tags: int, runs: int, seed: int,
             channel: ChannelModel = PERFECT_CHANNEL,
             timing: TimingModel = ICODE_TIMING,
             jobs: int = 1,
             cache: "ResultCache | None" = None,
             precision: float | None = None,
             planner: "PlannerConfig | None" = None) -> AggregateResult:
    """Average ``runs`` sessions of one protocol at one population size.

    ``jobs`` > 1 fans the runs out across worker processes; ``cache`` serves
    previously computed cells by content-addressed key.  Both are pure
    mechanics: the returned ``AggregateResult`` is identical either way.
    The cell runs on the kernel engine (``CellSpec``'s default): the
    batched frame-at-once sessions of :mod:`repro.kernels` where a kernel
    implements the configuration, the scalar sessions otherwise.

    ``precision`` (or a full ``planner`` config; passing both is an error)
    switches the cell to the adaptive sequential planner: ``runs`` becomes
    the *nominal* budget and the cell stops early once the target metric's
    CI reaches the requested relative precision -- a bit-identical prefix
    of the fixed-budget run (see :mod:`repro.experiments.planner`).
    """
    if n_tags < 0:
        raise ValueError("n_tags must be non-negative")
    if runs < 1:
        raise ValueError("runs must be >= 1")
    planner = _resolve_planner(precision, planner)
    from repro.experiments.executor import CellSpec, execute_cells
    spec = CellSpec(protocol=protocol, n_tags=n_tags, runs=runs, seed=seed,
                    channel=channel, timing=timing)
    return execute_cells([spec], jobs=jobs, cache=cache,
                         planner=planner)[0]


def _resolve_planner(precision: float | None,
                     planner: "PlannerConfig | None"
                     ) -> "PlannerConfig | None":
    """Fold the ``precision=`` shorthand into a planner config."""
    if precision is not None and planner is not None:
        raise ValueError("pass precision= or planner=, not both")
    if precision is None:
        return planner
    from repro.experiments.planner import PlannerConfig
    return PlannerConfig(precision=precision)


def sweep(protocols: list[TagReadingProtocol], n_values: list[int],
          runs: int, seed: int,
          channel: ChannelModel = PERFECT_CHANNEL,
          timing: TimingModel = ICODE_TIMING,
          jobs: int = 1,
          cache: "ResultCache | None" = None,
          precision: float | None = None,
          planner: "PlannerConfig | None" = None
          ) -> dict[tuple[str, int], AggregateResult]:
    """Run every (protocol, N) cell; seeds are decorrelated per cell.

    Raises ``ValueError`` when two protocols share a display ``name`` at the
    same N: the result dict is keyed by ``(name, n_tags)``, so a duplicate
    would silently overwrite the first protocol's cell.  The error names
    every offending ``(name, N)`` cell so a mis-built roster is fixable
    from the message alone.

    ``precision``/``planner`` switch the whole grid to the adaptive
    sequential planner (see :func:`run_cell`); saved budget flows to the
    highest-variance cells still open.
    """
    planner = _resolve_planner(precision, planner)
    from repro.experiments.executor import CellSpec, execute_cells
    specs: list[CellSpec] = []
    keys: list[tuple[str, int]] = []
    seen: set[tuple[str, int]] = set()
    duplicates: list[tuple[str, int]] = []
    for column, protocol in enumerate(protocols):
        for row, n_tags in enumerate(n_values):
            key = (protocol.name, n_tags)
            if key in seen:
                if key not in duplicates:
                    duplicates.append(key)
                continue
            seen.add(key)
            keys.append(key)
            cell_seed = (seed + SWEEP_COLUMN_STRIDE * column
                         + SWEEP_ROW_STRIDE * row)
            specs.append(CellSpec(protocol=protocol, n_tags=n_tags,
                                  runs=runs, seed=cell_seed,
                                  channel=channel, timing=timing))
    if duplicates:
        listed = ", ".join(f"({name!r}, {n_tags})"
                           for name, n_tags in duplicates)
        raise ValueError(
            f"duplicate sweep cell(s) {listed}: two protocols share a "
            "display name at the same N; give them distinct names")
    results = execute_cells(specs, jobs=jobs, cache=cache, planner=planner)
    return dict(zip(keys, results))
