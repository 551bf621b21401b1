"""Multi-reader interference scheduling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fcat import Fcat
from repro.inventory import (
    ReaderLocation,
    Warehouse,
    plan_parallel_round,
    run_inventory_round,
    run_parallel_round,
)
from repro.inventory.scheduling import ParallelSchedule
from repro.sim.population import TagPopulation


def _chain_warehouse(rng, n_locations=5, tags_per=80):
    """Locations in a chain: each overlaps only its neighbours."""
    population = TagPopulation.random(n_locations * tags_per, rng)
    ids = list(population.ids)
    locations = []
    for index in range(n_locations):
        start = index * tags_per
        covered = set(ids[start:start + tags_per])
        if index + 1 < n_locations:  # borrow a strip from the neighbour
            covered |= set(ids[start + tags_per:start + tags_per + 10])
        locations.append(ReaderLocation(f"location-{index}",
                                        frozenset(covered)))
    return Warehouse(locations), population


class TestInterferenceGraph:
    def test_chain_topology(self, rng):
        warehouse, _ = _chain_warehouse(rng)
        pairs = warehouse.overlap_pairs()
        assert len(warehouse.locations) == 5
        assert len(pairs) == 4  # a path graph
        assert ("location-0", "location-1") in pairs
        assert ("location-0", "location-2") not in pairs

    def test_disjoint_locations_have_no_edges(self, rng):
        population = TagPopulation.random(100, rng)
        warehouse = Warehouse.random_layout(population, 4, rng, overlap=0.0)
        assert warehouse.overlap_pairs() == {}


class TestPlanning:
    def test_chain_needs_two_phases(self, rng):
        warehouse, _ = _chain_warehouse(rng)
        schedule = plan_parallel_round(warehouse)
        assert schedule.n_phases == 2  # a path is 2-colorable

    def test_disjoint_needs_one_phase(self, rng):
        population = TagPopulation.random(100, rng)
        warehouse = Warehouse.random_layout(population, 4, rng, overlap=0.0)
        assert plan_parallel_round(warehouse).n_phases == 1

    def test_validation_rejects_interfering_phase(self, rng):
        warehouse, _ = _chain_warehouse(rng)
        bogus = ParallelSchedule(phases=[list(warehouse.locations)])
        with pytest.raises(ValueError):
            bogus.validate(warehouse)

    def test_validation_rejects_missing_location(self, rng):
        warehouse, _ = _chain_warehouse(rng)
        partial = ParallelSchedule(phases=[[warehouse.locations[0]]])
        with pytest.raises(ValueError):
            partial.validate(warehouse)


class TestColoringProperty:
    def test_random_warehouses_always_get_valid_schedules(self):
        """Property: for random overlapping layouts, the greedy coloring
        always yields interference-free phases that cover every location."""
        import numpy as np
        for seed in range(12):
            rng = np.random.default_rng(seed)
            population = TagPopulation.random(120, rng)
            n_locations = int(rng.integers(1, 7))
            overlap = float(rng.uniform(0.0, 0.6))
            warehouse = Warehouse.random_layout(population, n_locations, rng,
                                                overlap=overlap)
            schedule = plan_parallel_round(warehouse)
            schedule.validate(warehouse)  # raises on any violation
            assert 1 <= schedule.n_phases <= n_locations


class TestParallelRound:
    def test_reads_everything(self, rng):
        warehouse, population = _chain_warehouse(rng)
        round_result = run_parallel_round(warehouse, Fcat(lam=2),
                                          np.random.default_rng(5))
        assert round_result.observed_ids == frozenset(population.ids)
        assert round_result.duplicates_discarded > 0

    def test_parallelism_beats_sequential(self, rng):
        warehouse, _ = _chain_warehouse(rng)
        sequential = run_inventory_round(warehouse, Fcat(lam=2),
                                         np.random.default_rng(5))
        parallel = run_parallel_round(warehouse, Fcat(lam=2),
                                      np.random.default_rng(5))
        # 5 locations in 2 phases: roughly 2.5x faster.
        assert parallel.total_duration_s < 0.6 * sequential.total_duration_s

    def test_phase_durations_match_schedule(self, rng):
        warehouse, _ = _chain_warehouse(rng)
        parallel = run_parallel_round(warehouse, Fcat(lam=2),
                                      np.random.default_rng(5))
        assert len(parallel.phase_durations) == parallel.schedule.n_phases
        assert parallel.total_duration_s == pytest.approx(
            sum(parallel.phase_durations))
