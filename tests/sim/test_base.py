"""Protocol base interface and the run_many averaging helper."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.air.timing import ICODE_TIMING, TimingModel
from repro.sim.base import TagReadingProtocol, run_many
from repro.sim.channel import PERFECT_CHANNEL, ChannelModel
from repro.sim.population import TagPopulation
from repro.sim.result import ReadingResult


class OneShotProtocol(TagReadingProtocol):
    """Reads every tag in one singleton slot each; records the rng draw."""

    name = "oneshot"

    def __init__(self, complete: bool = True):
        self.complete_runs = complete
        self.seen_draws: list[float] = []

    def read_all(self, population, rng, channel=PERFECT_CHANNEL,
                 timing=ICODE_TIMING):
        self.seen_draws.append(float(rng.random()))
        n = len(population)
        n_read = n if self.complete_runs else max(n - 1, 0)
        return ReadingResult(protocol=self.name, n_tags=n, n_read=n_read,
                             singleton_slots=max(n, 1), timing=timing)


class TestRunMany:
    def test_aggregates_runs(self, small_population):
        agg = run_many(OneShotProtocol(), small_population, runs=5, seed=1)
        assert agg.runs == 5
        assert agg.n_tags == len(small_population)

    def test_independent_rngs_per_run(self, small_population):
        protocol = OneShotProtocol()
        run_many(protocol, small_population, runs=6, seed=1)
        assert len(set(protocol.seen_draws)) == 6

    def test_reproducible_given_seed(self, small_population):
        first = OneShotProtocol()
        second = OneShotProtocol()
        run_many(first, small_population, runs=3, seed=42)
        run_many(second, small_population, runs=3, seed=42)
        assert first.seen_draws == second.seen_draws

    def test_incomplete_run_on_perfect_channel_raises(self, small_population):
        # Executor workers see a pickled copy, not the PERFECT_CHANNEL
        # object itself; an all-zero channel is the perfect channel too.
        for channel in (PERFECT_CHANNEL,
                        pickle.loads(pickle.dumps(PERFECT_CHANNEL)),
                        ChannelModel(collision_unusable_prob=0.0)):
            with pytest.raises(RuntimeError):
                run_many(OneShotProtocol(complete=False), small_population,
                         runs=1, seed=1, channel=channel)

    def test_incomplete_run_tolerated_on_lossy_channel(self, small_population):
        channel = ChannelModel(ack_loss_prob=0.5)
        agg = run_many(OneShotProtocol(complete=False), small_population,
                       runs=1, seed=1, channel=channel)
        assert agg.runs == 1

    def test_rejects_zero_runs(self, small_population):
        with pytest.raises(ValueError):
            run_many(OneShotProtocol(), small_population, runs=0, seed=1)

    def test_custom_timing_threads_through(self, small_population):
        timing = TimingModel(bit_rate=106_000.0)
        protocol = OneShotProtocol()
        agg = run_many(protocol, small_population, runs=1, seed=1,
                       timing=timing)
        # Faster channel, same slot count => higher throughput.
        baseline = run_many(OneShotProtocol(), small_population, runs=1,
                            seed=1)
        assert agg.throughput_mean > baseline.throughput_mean

    def test_repr_contains_name(self):
        assert "oneshot" in repr(OneShotProtocol())
