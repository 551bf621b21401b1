"""Tag-side energy accounting: closed forms vs measured transmissions."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.energy import (
    energy_per_tag_joules,
    expected_transmissions_dfsa,
    expected_transmissions_fcat,
    expected_transmissions_tree,
    transmissions_per_tag,
)
from repro.baselines import AdaptiveBinarySplitting, Dfsa
from repro.core import Fcat
from repro.sim.population import TagPopulation
from repro.sim.result import ReadingResult


class TestClosedForms:
    def test_fcat_lambda2(self):
        # omega / P_useful = 1.414 / 0.587 ~ 2.41
        assert expected_transmissions_fcat(2) == pytest.approx(2.41,
                                                               abs=0.03)

    def test_dfsa_is_e(self):
        assert expected_transmissions_dfsa() == pytest.approx(math.e)

    def test_fcat_beats_dfsa_in_energy_too(self):
        assert expected_transmissions_fcat(2) < expected_transmissions_dfsa()

    def test_tree_grows_with_population(self):
        assert expected_transmissions_tree(1 << 12) \
            > expected_transmissions_tree(1 << 8)
        assert expected_transmissions_tree(0) == 0.0


class TestMeasuredTransmissions:
    @pytest.fixture(scope="class")
    def population(self):
        return TagPopulation.random(2000, np.random.default_rng(71))

    def test_fcat_matches_closed_form(self, population):
        result = Fcat(lam=2, initial_estimate=2000.0).read_all(
            population, np.random.default_rng(72))
        measured = transmissions_per_tag(result)
        assert measured == pytest.approx(expected_transmissions_fcat(2),
                                         rel=0.10)

    def test_dfsa_matches_closed_form(self, population):
        result = Dfsa().read_all(population, np.random.default_rng(72))
        assert transmissions_per_tag(result) == pytest.approx(
            math.e, rel=0.10)

    def test_tree_matches_closed_form(self, population):
        result = AdaptiveBinarySplitting().read_all(
            population, np.random.default_rng(72))
        assert transmissions_per_tag(result) == pytest.approx(
            expected_transmissions_tree(2000), rel=0.12)

    def test_energy_ordering(self, population):
        """FCAT < DFSA << tree in per-tag battery cost at this scale.

        FCAT is seeded with the count here: its blind bootstrap's
        all-collision frames cost each tag ~1 extra broadcast (pinned by
        the test below), which would blur the ordering against DFSA.
        """
        fcat = Fcat(lam=2, initial_estimate=2000.0).read_all(
            population, np.random.default_rng(72))
        dfsa = Dfsa().read_all(population, np.random.default_rng(72))
        tree = AdaptiveBinarySplitting().read_all(population,
                                                  np.random.default_rng(72))
        assert transmissions_per_tag(fcat) < transmissions_per_tag(dfsa)
        assert transmissions_per_tag(dfsa) < transmissions_per_tag(tree)

    def test_blind_bootstrap_costs_broadcasts(self, population):
        """The doubling phase runs the channel far above omega, so every tag
        pays extra broadcasts."""
        blind = Fcat(lam=2).read_all(population, np.random.default_rng(72))
        seeded = Fcat(lam=2, initial_estimate=2000.0).read_all(
            population, np.random.default_rng(72))
        assert transmissions_per_tag(blind) \
            > transmissions_per_tag(seeded) + 0.5

    def test_energy_conversion(self, population):
        result = Dfsa().read_all(population, np.random.default_rng(72))
        joules = energy_per_tag_joules(result, tx_power_w=10e-3)
        # ~e broadcasts x 1.812 ms x 10 mW ~ 49 uJ.
        assert joules == pytest.approx(49e-6, rel=0.2)
        with pytest.raises(ValueError):
            energy_per_tag_joules(result, tx_power_w=0.0)

    def test_empty_population(self):
        result = ReadingResult(protocol="x", n_tags=0, n_read=0)
        assert transmissions_per_tag(result) == 0.0
