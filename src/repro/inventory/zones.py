"""Reader locations and coverage (paper section II-A, first paragraph).

A warehouse deploys tags across an area larger than one reader position's
range, so the reader (or several) performs the reading process at multiple
locations; coverage regions overlap, and tags in the overlap are read twice
(the duplicates are discarded when merging).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.population import TagPopulation


@dataclass(frozen=True)
class ReaderLocation:
    """One position the reader reads from, and the tags it can hear."""

    name: str
    covered_ids: frozenset[int]

    def population(self) -> TagPopulation:
        return TagPopulation(sorted(self.covered_ids), validate=False)

    def __len__(self) -> int:
        return len(self.covered_ids)


class Warehouse:
    """A deployment of tags partitioned into overlapping reader locations."""

    def __init__(self, locations: list[ReaderLocation]) -> None:
        if not locations:
            raise ValueError("a warehouse needs at least one reader location")
        names = [location.name for location in locations]
        if len(set(names)) != len(names):
            raise ValueError("reader location names must be distinct")
        self.locations = list(locations)

    @property
    def all_ids(self) -> frozenset[int]:
        ids: set[int] = set()
        for location in self.locations:
            ids |= location.covered_ids
        return frozenset(ids)

    @property
    def uncovered_overlap_fraction(self) -> float:
        """Fraction of tags heard from more than one location."""
        total = self.all_ids
        if not total:
            return 0.0
        seen_once: set[int] = set()
        seen_twice: set[int] = set()
        for location in self.locations:
            seen_twice |= location.covered_ids & seen_once
            seen_once |= location.covered_ids
        return len(seen_twice) / len(total)

    def coverage_counts(self) -> dict[int, int]:
        """How many locations hear each tag (1 = exclusive, 2+ = overlap)."""
        counts: dict[int, int] = {}
        for location in self.locations:
            for tag_id in location.covered_ids:
                counts[tag_id] = counts.get(tag_id, 0) + 1
        return counts

    def overlap_pairs(self) -> dict[tuple[str, str], int]:
        """Shared-tag counts per interfering location pair.

        Keys are ``(name_a, name_b)`` in roster order; only pairs whose
        coverage actually intersects appear, so the keys are exactly the
        interference edges that
        :func:`repro.inventory.scheduling.plan_parallel_round` colors, and
        the values are the edge weights an interference model needs.
        """
        pairs: dict[tuple[str, str], int] = {}
        for i, first in enumerate(self.locations):
            for second in self.locations[i + 1:]:
                shared = len(first.covered_ids & second.covered_ids)
                if shared:
                    pairs[(first.name, second.name)] = shared
        return pairs

    def overlap_fraction_between(self, name_a: str, name_b: str) -> float:
        """Shared tags of the pair over the first location's coverage.

        The asymmetric load ``|A ∩ B| / |A|``: the fraction of ``name_a``'s
        interrogation zone garbled when ``name_b`` reads concurrently.
        """
        by_name = {location.name: location for location in self.locations}
        try:
            first, second = by_name[name_a], by_name[name_b]
        except KeyError as error:
            raise KeyError(f"unknown reader location {error.args[0]!r}")
        if not first.covered_ids:
            return 0.0
        return len(first.covered_ids & second.covered_ids) \
            / len(first.covered_ids)

    @classmethod
    def random_layout(cls, population: TagPopulation, n_locations: int,
                      rng: np.random.Generator,
                      overlap: float = 0.15,
                      wrap: bool = False) -> "Warehouse":
        """Split a population into ``n_locations`` contiguous zones.

        Each zone additionally hears ``overlap`` of its successor's tags
        (readers at zone boundaries pick up both sides) so the merge step
        has real duplicates to discard.  With ``wrap=True`` the layout is a
        closed ring -- the last zone also hears the head of the first --
        which makes every zone overlap a neighbour and gives the
        interference graph a cycle instead of a path (the aisle-loop
        deployments the multi-reader scheduler shards).

        The seed code assumed an open chain, so the final location could
        never share coverage; the ring form is what
        :mod:`repro.service.sharding` mirrors at facility scale.
        """
        if n_locations < 1:
            raise ValueError("n_locations must be >= 1")
        if not 0.0 <= overlap < 1.0:
            raise ValueError("overlap must be in [0, 1)")
        ids = list(population.ids)
        rng.shuffle(ids)
        chunks = np.array_split(np.arange(len(ids)), n_locations)
        locations = []
        for index, chunk in enumerate(chunks):
            covered = {ids[i] for i in chunk}
            successor = index + 1
            if wrap and n_locations > 1:
                successor %= n_locations
            if overlap and successor != index and successor < n_locations:
                neighbour = chunks[successor]
                borrow = neighbour[: max(int(len(neighbour) * overlap), 0)]
                covered |= {ids[i] for i in borrow}
            locations.append(ReaderLocation(name=f"location-{index}",
                                            covered_ids=frozenset(covered)))
        return cls(locations)
