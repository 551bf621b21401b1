"""Multi-reader scheduling: reading overlapping locations in parallel.

The paper's introduction offers two ways to cover a large area: move one
reader between locations (what :func:`~repro.inventory.manager.run_inventory_round`
models, with the location times summing), or "deploy numerous readers, each
covering a small area".  Simultaneous readers whose coverage overlaps
interfere -- a tag in the overlap hears two advertisements and garbles both
sessions -- so interfering readers must not operate at the same time.

That is a graph coloring problem: vertices are reader locations, edges join
locations with overlapping coverage, and a proper coloring partitions the
locations into interference-free *phases* that can run concurrently.  The
round's wall-clock is then the sum over phases of the slowest location in
each phase, instead of the sum over all locations.

:func:`color_phases` is the one phase planner: this module applies it to a
:class:`~repro.inventory.zones.Warehouse`'s overlap pairs, and
:func:`repro.service.sharding.plan_shards` to a facility ring's.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable

import numpy as np

from repro.air.timing import ICODE_TIMING, TimingModel
from repro.inventory.manager import InventoryRound, run_inventory_round
from repro.inventory.zones import ReaderLocation, Warehouse
from repro.sim.base import TagReadingProtocol
from repro.sim.channel import PERFECT_CHANNEL, ChannelModel


def color_phases(n: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    """First-fit coloring of vertices ``0..n-1`` in index order.

    Each vertex takes the smallest color none of its lower-indexed
    neighbours holds, so the colors used are exactly ``0..max``.  That
    is optimal on the chains and rings readers are laid out in: a chain
    or an even ring alternates 0/1, and an odd ring gives its last
    (seam) vertex color 2.
    """
    earlier: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        if a < b:
            earlier[b].append(a)
        else:
            earlier[a].append(b)
    colors: list[int] = []
    for neighbours in earlier:
        if len(neighbours) == 1:
            # The common case on chains and rings, without a set.
            color = 0 if colors[neighbours[0]] else 1
        else:
            taken = set(map(colors.__getitem__, neighbours))
            color = 0
            while color in taken:
                color += 1
        colors.append(color)
    return colors


@dataclass
class ParallelSchedule:
    """Interference-free phases of reader locations."""

    phases: list[list[ReaderLocation]]

    @property
    def n_phases(self) -> int:
        return len(self.phases)

    def validate(self, warehouse: Warehouse) -> None:
        """Raise if any phase contains two interfering locations."""
        for phase in self.phases:
            for i, first in enumerate(phase):
                for second in phase[i + 1:]:
                    if first.covered_ids & second.covered_ids:
                        raise ValueError(
                            f"{first.name} and {second.name} interfere but "
                            "share a phase")
        scheduled = {location.name for phase in self.phases
                     for location in phase}
        expected = {location.name for location in warehouse.locations}
        if scheduled != expected:
            raise ValueError("schedule does not cover every location")


def plan_parallel_round(warehouse: Warehouse) -> ParallelSchedule:
    """Color the overlap pairs into concurrent phases (roster order)."""
    locations = warehouse.locations
    index = {location.name: i for i, location in enumerate(locations)}
    colors = color_phases(len(locations),
                          [(index[first], index[second])
                           for first, second in warehouse.overlap_pairs()])
    phases: list[list[ReaderLocation]] = [[] for _ in range(max(colors) + 1)]
    for location, color in zip(locations, colors):
        phases[color].append(location)
    return ParallelSchedule(phases=phases)


@dataclass
class ParallelRound(InventoryRound):
    """An inventory round executed phase by phase with concurrent readers."""

    schedule: ParallelSchedule = None  # type: ignore[assignment]
    phase_durations: list[float] = None  # type: ignore[assignment]

    @property
    def total_duration_s(self) -> float:
        """Wall-clock: phases run sequentially, locations within in parallel."""
        return sum(self.phase_durations)


def run_parallel_round(warehouse: Warehouse, protocol: TagReadingProtocol,
                       rng: np.random.Generator,
                       channel: ChannelModel = PERFECT_CHANNEL,
                       timing: TimingModel = ICODE_TIMING) -> ParallelRound:
    """Read the warehouse with one reader per location, phase-scheduled.

    The locations are read in phase order through
    :func:`~repro.inventory.manager.run_inventory_round`; each phase's
    wall-clock is its slowest location.
    """
    schedule = plan_parallel_round(warehouse)
    serial = run_inventory_round(
        Warehouse([location for phase in schedule.phases
                   for location in phase]),
        protocol, rng, channel=channel, timing=timing)
    results = iter(serial.results)
    phase_durations = [max(result.duration_s
                           for result in islice(results, len(phase)))
                       for phase in schedule.phases]
    return ParallelRound(warehouse=warehouse, results=serial.results,
                         observed_ids=serial.observed_ids,
                         duplicates_discarded=serial.duplicates_discarded,
                         schedule=schedule, phase_durations=phase_durations)
