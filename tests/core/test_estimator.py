"""The embedded estimator: inversion formulas, bias, bootstrap, modes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.estimator import (
    EmbeddedEstimator,
    invert_collision_count,
    invert_collision_count_exact,
    invert_empty_count,
)
from repro.core.optimal import optimal_omega


class TestInversion:
    def test_paper_form_recovers_n_at_nominal_load(self):
        """Feeding E(n_c) back through Eq. 12 returns ~N when load = omega."""
        n, f = 5000.0, 30
        omega = optimal_omega(2)
        p = omega / n
        expected_nc = f * (1 - (1 - p) ** (n - 1) * (1 - p + n * p))
        estimate = invert_collision_count(int(round(expected_nc)), f, p, omega)
        assert estimate == pytest.approx(n, rel=0.1)

    def test_exact_form_recovers_n(self):
        n, f = 5000.0, 30
        p = 1.414 / n
        expected_nc = f * (1 - np.exp(-n * p) * (1 + n * p))
        estimate = invert_collision_count_exact(int(round(expected_nc)), f, p)
        assert estimate == pytest.approx(n, rel=0.1)

    def test_exact_form_handles_any_load(self):
        """Unlike Eq. 12 the exact inversion has no nominal-load assumption."""
        n, f = 8000.0, 100
        p = 3.0 / n  # double the nominal load
        expected_nc = f * (1 - np.exp(-n * p) * (1 + n * p))
        estimate = invert_collision_count_exact(int(round(expected_nc)), f, p)
        assert estimate == pytest.approx(n, rel=0.1)

    def test_zero_collisions(self):
        assert invert_collision_count_exact(0, 30, 0.01) == 0.0
        # The paper form assumes the frame ran at load omega, so a zero
        # collision count inverts to a small-but-positive population.
        paper = invert_collision_count(0, 30, 0.01, 1.414)
        assert 0 < paper < 100

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            invert_collision_count(30, 30, 0.01, 1.414)
        with pytest.raises(ValueError):
            invert_collision_count(-1, 30, 0.01, 1.414)
        with pytest.raises(ValueError):
            invert_collision_count(5, 30, 0.0, 1.414)
        with pytest.raises(ValueError):
            invert_collision_count_exact(30, 30, 0.01)

    def test_empty_count_inversion(self):
        """Feeding E(n0) back through Eq. 7 returns ~N."""
        n, f = 5000.0, 30
        p = 1.414 / n
        expected_n0 = f * (1 - p) ** n
        estimate = invert_empty_count(int(round(expected_n0)), f, p)
        assert estimate == pytest.approx(n, rel=0.1)

    def test_empty_count_domain(self):
        with pytest.raises(ValueError):
            invert_empty_count(0, 30, 0.01)
        with pytest.raises(ValueError):
            invert_empty_count(31, 30, 0.01)
        with pytest.raises(ValueError):
            invert_empty_count(5, 30, 1.0)

    def test_monte_carlo_bias_is_small(self, rng):
        """Empirical mean of the Eq. 12 estimates lands within ~2% of N."""
        n, f = 10_000, 30
        omega = optimal_omega(2)
        p = omega / n
        estimates = []
        for _ in range(1500):
            counts = rng.binomial(n, p, size=f)
            n_c = int((counts >= 2).sum())
            if n_c < f:
                estimates.append(invert_collision_count(n_c, f, p, omega))
        assert np.mean(estimates) == pytest.approx(n, rel=0.02)


class TestEmbeddedEstimator:
    def _estimator(self, **overrides):
        config = dict(omega=optimal_omega(2), frame_size=30,
                      initial_guess=64.0)
        config.update(overrides)
        return EmbeddedEstimator(**config)

    def test_initial_guess(self):
        assert self._estimator().remaining() == 64.0

    def test_all_collision_frame_doubles(self):
        estimator = self._estimator()
        estimator.update(30, 0.02, 0, 0)
        assert estimator.remaining() == 128.0
        estimator.update(30, 0.02, 0, 0)
        assert estimator.remaining() == 256.0

    def test_informative_frame_updates(self):
        estimator = self._estimator(mode="last")
        estimator.update(12, 1.414 / 5000, 0, 0)
        assert 3000 < estimator.remaining() < 8000

    def test_identification_progress_subtracts(self):
        estimator = self._estimator(mode="last")
        estimator.update(12, 1.414 / 5000, 0, 1000)
        lower = estimator.remaining()
        fresh = self._estimator(mode="last")
        fresh.update(12, 1.414 / 5000, 0, 0)
        assert lower < fresh.remaining()

    def test_ewma_blends(self):
        estimator = self._estimator(mode="ewma")
        estimator.update(12, 1.414 / 5000, 0, 0)
        first = estimator.remaining()
        estimator.update(20, 1.414 / 5000, 0, 0)
        second = estimator.remaining()
        assert second > first  # more collisions -> larger estimate

    def test_force_at_least(self):
        estimator = self._estimator(mode="last", method="exact")
        estimator.update(0, 0.4, 0, 0)
        assert estimator.remaining() == 1.0  # floor
        estimator.force_at_least(5.0)
        assert estimator.remaining() == 5.0

    def test_remaining_never_below_one(self):
        estimator = self._estimator(mode="last")
        estimator.update(0, 0.3, 0, 50)
        assert estimator.remaining() >= 1.0

    def test_degenerate_probability_is_ignored(self):
        estimator = self._estimator()
        estimator.update(5, 1.0, 0, 0)
        assert estimator.remaining() == 64.0

    def test_decreasing_identified_rejected(self):
        estimator = self._estimator()
        with pytest.raises(ValueError):
            estimator.update(5, 0.01, 10, 5)

    def test_empty_source_tracks(self):
        estimator = self._estimator(mode="last", source="empty")
        p = 1.414 / 5000
        n0 = int(round(30 * (1 - p) ** 5000))
        estimator.update(0, p, 0, 0, n_empty=n0)
        assert estimator.remaining() == pytest.approx(5000, rel=0.15)

    def test_empty_source_requires_empty_count(self):
        estimator = self._estimator(source="empty")
        with pytest.raises(ValueError):
            estimator.update(5, 0.01, 0, 0)

    def test_empty_source_saturation_doubles_when_blind(self):
        estimator = self._estimator(source="empty")
        estimator.update(30, 0.02, 0, 0, n_empty=0)
        assert estimator.remaining() == 128.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            self._estimator(initial_guess=0.0)
        with pytest.raises(ValueError):
            self._estimator(source="psychic")
        with pytest.raises(ValueError):
            self._estimator(method="wrong")
        with pytest.raises(ValueError):
            self._estimator(mode="wrong")
        with pytest.raises(ValueError):
            self._estimator(frame_size=0)

    def test_converges_on_synthetic_session(self, rng):
        """Closed loop: estimator-driven p tracks a shrinking population."""
        estimator = self._estimator()
        omega = optimal_omega(2)
        population = 4000
        for _ in range(200):
            p = min(omega / estimator.remaining(), 0.5)
            counts = rng.binomial(max(population, 0), p, size=30)
            n_c = int((counts >= 2).sum())
            identified = 4000 - population
            reads = int((counts == 1).sum())
            population = max(population - reads, 0)
            estimator.update(n_c, p, identified, 4000 - population)
            if population == 0:
                break
        # After the bootstrap the estimate should sit near the truth.
        assert estimator.remaining() == pytest.approx(max(population, 1),
                                                      rel=0.5, abs=40)
