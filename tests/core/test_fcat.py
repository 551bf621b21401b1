"""FCAT end-to-end: completeness, accounting invariants, configuration,
error injection, and the statistical fingerprints of the paper."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fcat import Fcat, FcatConfig
from repro.sim.channel import ChannelModel
from repro.sim.population import TagPopulation


class TestCompleteness:
    @pytest.mark.parametrize("lam", [2, 3, 4])
    def test_reads_every_tag(self, small_population, lam):
        result = Fcat(lam=lam).read_all(small_population,
                                        np.random.default_rng(5))
        assert result.complete
        assert result.n_read == len(small_population)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7])
    def test_tiny_populations(self, n):
        population = TagPopulation.random(n, np.random.default_rng(n + 1))
        result = Fcat(lam=2).read_all(population, np.random.default_rng(9))
        assert result.complete

    @given(st.integers(0, 60), st.integers(0, 2 ** 16))
    @settings(max_examples=25, deadline=None)
    def test_property_always_complete(self, n, seed):
        population = TagPopulation.random(n, np.random.default_rng(seed))
        result = Fcat(lam=2, frame_size=10).read_all(
            population, np.random.default_rng(seed + 1))
        assert result.complete

    def test_bad_initial_estimate_still_completes(self, small_population):
        """A wildly wrong initial guess only costs bootstrap frames."""
        high = Fcat(lam=2, initial_estimate=50_000.0).read_all(
            small_population, np.random.default_rng(5))
        low = Fcat(lam=2, initial_estimate=1.0).read_all(
            small_population, np.random.default_rng(5))
        assert high.complete and low.complete


class TestAccounting:
    def test_slot_classes_partition_session(self, medium_population):
        result = Fcat(lam=2).read_all(medium_population,
                                      np.random.default_rng(2))
        assert result.total_slots == (result.empty_slots
                                      + result.singleton_slots
                                      + result.collision_slots)

    def test_reads_split_between_singletons_and_resolutions(
            self, medium_population):
        result = Fcat(lam=2).read_all(medium_population,
                                      np.random.default_rng(2))
        assert result.resolved_from_collision > 0
        assert result.resolved_from_collision < result.n_read
        # On a perfect channel every read is a singleton or a resolution.
        direct_reads = result.n_read - result.resolved_from_collision
        assert direct_reads <= result.singleton_slots

    def test_announcements_match_resolutions(self, medium_population):
        result = Fcat(lam=2).read_all(medium_population,
                                      np.random.default_rng(2))
        assert result.index_announcements == result.resolved_from_collision
        assert result.id_announcements == 0  # FCAT never announces full IDs

    def test_one_advertisement_per_frame_plus_probes(self, medium_population):
        result = Fcat(lam=2).read_all(medium_population,
                                      np.random.default_rng(2))
        assert result.advertisements >= result.frames
        # Probes are rare: no more than a handful beyond the frames.
        assert result.advertisements <= result.frames + 10

    def test_estimate_trace_one_entry_per_frame(self, medium_population):
        result = Fcat(lam=2).read_all(medium_population,
                                      np.random.default_rng(2))
        assert len(result.estimate_trace) == result.frames

    def test_reproducible_given_rng(self, small_population):
        a = Fcat(lam=2).read_all(small_population, np.random.default_rng(3))
        b = Fcat(lam=2).read_all(small_population, np.random.default_rng(3))
        assert a.total_slots == b.total_slots
        assert a.estimate_trace == b.estimate_trace


class TestPaperFingerprints:
    """Statistical shapes from section VI at a reduced scale."""

    def test_slot_mix_near_poisson_at_optimal_load(self, medium_population):
        result = Fcat(lam=2).read_all(medium_population,
                                      np.random.default_rng(7))
        # Poisson(1.414): 24.3% empty / 34.4% singleton / 41.3% collision.
        empty_fraction = result.empty_slots / result.total_slots
        assert 0.18 < empty_fraction < 0.33

    def test_resolved_fraction_grows_with_lambda(self, medium_population):
        fractions = {}
        for lam in (2, 3, 4):
            result = Fcat(lam=lam).read_all(medium_population,
                                            np.random.default_rng(7))
            fractions[lam] = result.resolved_from_collision / result.n_read
        assert fractions[2] < fractions[3] < fractions[4]
        assert 0.3 < fractions[2] < 0.5     # paper: ~40%
        assert 0.6 < fractions[4] < 0.8     # paper: ~68-71%

    def test_higher_lambda_fewer_slots(self, medium_population):
        totals = [Fcat(lam=lam).read_all(medium_population,
                                         np.random.default_rng(7)).total_slots
                  for lam in (2, 3, 4)]
        assert totals[0] > totals[1] > totals[2]

    def test_slots_well_below_e_times_n(self, medium_population):
        """The whole point: beat the ALOHA floor of e*N slots."""
        result = Fcat(lam=2).read_all(medium_population,
                                      np.random.default_rng(7))
        assert result.total_slots < 2.2 * len(medium_population)


class TestErrorInjection:
    def test_unusable_records_slow_but_complete(self, small_population):
        channel = ChannelModel(collision_unusable_prob=0.7)
        result = Fcat(lam=2).read_all(small_population,
                                      np.random.default_rng(4),
                                      channel=channel)
        assert result.complete

    def test_all_records_unusable_degenerates_to_aloha(self,
                                                       small_population):
        channel = ChannelModel(collision_unusable_prob=1.0)
        result = Fcat(lam=2).read_all(small_population,
                                      np.random.default_rng(4),
                                      channel=channel)
        assert result.complete
        assert result.resolved_from_collision == 0

    def test_corrupted_singletons_recovered(self, small_population):
        channel = ChannelModel(singleton_corrupt_prob=0.3)
        result = Fcat(lam=2).read_all(small_population,
                                      np.random.default_rng(4),
                                      channel=channel)
        assert result.complete

    def test_lost_acks_cause_no_duplicates(self, small_population):
        channel = ChannelModel(ack_loss_prob=0.4)
        result = Fcat(lam=2).read_all(small_population,
                                      np.random.default_rng(4),
                                      channel=channel)
        assert result.n_read == len(small_population)  # no double counting

    def test_combined_errors(self, small_population):
        channel = ChannelModel(singleton_corrupt_prob=0.1, ack_loss_prob=0.1,
                               collision_unusable_prob=0.3)
        result = Fcat(lam=2).read_all(small_population,
                                      np.random.default_rng(4),
                                      channel=channel)
        assert result.complete


class TestConfig:
    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            Fcat(lam=1)
        with pytest.raises(ValueError):
            Fcat(frame_size=0)
        for frame_size in (1, 2):
            with pytest.raises(ValueError, match="frame_size >= 3"):
                Fcat(frame_size=frame_size, estimator_source="empty")
        with pytest.raises(ValueError):
            Fcat(omega=0.0)
        with pytest.raises(ValueError):
            Fcat(max_report_probability=0.0)

    def test_default_omega_is_optimal(self):
        assert FcatConfig(lam=3).effective_omega == pytest.approx(1.817,
                                                                  abs=1e-3)

    def test_explicit_omega_respected(self):
        assert FcatConfig(lam=2, omega=0.9).effective_omega == 0.9

    def test_name_carries_lambda(self):
        assert Fcat(lam=3).name == "FCAT-3"

    def test_stuck_session_guard(self, small_population):
        """An absurd slot budget triggers the watchdog, not a hang."""
        protocol = Fcat(lam=2, omega=0.001, max_slots_factor=0.5)
        with pytest.raises(RuntimeError):
            protocol.read_all(small_population, np.random.default_rng(1))
