"""Overlap pairs, phase coloring and the parallel inventory round."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import Fcat
from repro.inventory.scheduling import (
    color_phases,
    plan_parallel_round,
    run_parallel_round,
)
from repro.inventory.zones import ReaderLocation, Warehouse
from repro.sim.population import TagPopulation


def _warehouse(*coverages: set[int]) -> Warehouse:
    return Warehouse([
        ReaderLocation(name=f"loc-{index}", covered_ids=frozenset(ids))
        for index, ids in enumerate(coverages)])


def test_interference_graph_edges_are_overlapping_pairs():
    warehouse = _warehouse({1, 2}, {2, 3}, {4})
    # The interference edges are exactly the overlap_pairs keys.
    assert warehouse.overlap_pairs() == {("loc-0", "loc-1"): 1}
    schedule = plan_parallel_round(warehouse)
    assert [[location.name for location in phase]
            for phase in schedule.phases] == [["loc-0", "loc-2"], ["loc-1"]]


def test_color_phases_first_fit_on_chains_and_rings():
    assert color_phases(0, []) == []
    assert color_phases(3, []) == [0, 0, 0]
    chain = [(index, index + 1) for index in range(4)]
    assert color_phases(5, chain) == [0, 1, 0, 1, 0]
    for n in range(3, 12):
        ring = [(index, (index + 1) % n) for index in range(n)]
        expected = [index % 2 for index in range(n)]
        if n % 2 == 1:
            expected[-1] = 2  # the odd ring's seam
        assert color_phases(n, ring) == expected
    # Edge direction and duplicates do not matter.
    assert color_phases(2, [(1, 0), (0, 1)]) == [0, 1]


@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
             .filter(lambda edge: edge[0] != edge[1]), max_size=30))))
def test_color_phases_is_proper_and_contiguous(case):
    n, edges = case
    colors = color_phases(n, edges)
    assert len(colors) == n
    assert all(colors[a] != colors[b] for a, b in edges)
    assert set(colors) == set(range(max(colors) + 1))


@pytest.mark.parametrize("n_locations", [2, 3, 4, 5, 6, 7])
def test_ring_layout_gets_the_optimal_phase_count(n_locations):
    rng = np.random.default_rng(n_locations)
    population = TagPopulation.random(40 * n_locations, rng)
    warehouse = Warehouse.random_layout(population, n_locations, rng,
                                        overlap=0.2, wrap=True)
    schedule = plan_parallel_round(warehouse)
    schedule.validate(warehouse)
    assert schedule.n_phases == (3 if n_locations % 2 else 2)


def test_plan_separates_interfering_locations():
    warehouse = _warehouse({1, 2}, {2, 3}, {3, 4}, {9})
    schedule = plan_parallel_round(warehouse)
    schedule.validate(warehouse)  # raises on any interfering phase
    assert schedule.n_phases == 2  # a path is 2-colorable
    scheduled = {location.name for phase in schedule.phases
                 for location in phase}
    assert scheduled == {"loc-0", "loc-1", "loc-2", "loc-3"}


def test_plan_disjoint_zones_run_in_one_phase():
    warehouse = _warehouse({1}, {2}, {3})
    schedule = plan_parallel_round(warehouse)
    assert schedule.n_phases == 1
    assert len(schedule.phases[0]) == 3


def test_validate_rejects_interfering_phase():
    warehouse = _warehouse({1, 2}, {2, 3})
    schedule = plan_parallel_round(warehouse)
    bad = type(schedule)(phases=[[warehouse.locations[0],
                                  warehouse.locations[1]]])
    with pytest.raises(ValueError, match="interfere"):
        bad.validate(warehouse)


def test_validate_rejects_missing_location():
    warehouse = _warehouse({1, 2}, {3})
    schedule = plan_parallel_round(warehouse)
    partial = type(schedule)(phases=[[warehouse.locations[0]]])
    with pytest.raises(ValueError, match="every location"):
        partial.validate(warehouse)


def test_parallel_round_wall_clock_is_sum_of_phase_maxima():
    rng = np.random.default_rng(12)
    population = TagPopulation.random(150, rng)
    warehouse = Warehouse.random_layout(population, 4, rng, overlap=0.2)
    inventory = run_parallel_round(warehouse, Fcat(lam=2),
                                   np.random.default_rng(7))
    assert inventory.observed_ids == warehouse.all_ids
    assert len(inventory.phase_durations) == inventory.schedule.n_phases
    assert inventory.total_duration_s == pytest.approx(
        sum(inventory.phase_durations))
    # Phase wall-clock can only beat (or tie) the sequential sum.
    sequential = sum(result.duration_s for result in inventory.results)
    assert inventory.total_duration_s <= sequential + 1e-12


def test_parallel_round_on_ring_layout():
    rng = np.random.default_rng(21)
    population = TagPopulation.random(160, rng)
    warehouse = Warehouse.random_layout(population, 4, rng, overlap=0.25,
                                        wrap=True)
    inventory = run_parallel_round(warehouse, Fcat(lam=2),
                                   np.random.default_rng(2))
    inventory.schedule.validate(warehouse)
    assert inventory.observed_ids == warehouse.all_ids
    # An even cycle is 2-colorable; the ring must not degrade to serial.
    assert inventory.schedule.n_phases < len(warehouse.locations)
