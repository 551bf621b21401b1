"""Hypothesis-driven cross-protocol invariants.

For random population sizes, channel-error mixes and seeds, every protocol
in the library must: read each tag exactly once, keep its slot accounting
partitioned, and report a positive finite duration.  These are the
invariants the experiment harness silently relies on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import (
    AdaptiveBinarySplitting,
    AdaptiveQuerySplitting,
    Crdsa,
    Dfsa,
    Edfsa,
    Gen2Q,
    SlottedAloha,
)
from repro.core import Fcat, Scat
from repro.sim.channel import ChannelModel
from repro.sim.population import TagPopulation

PROTOCOL_FACTORIES = [
    lambda: Fcat(lam=2),
    lambda: Fcat(lam=3, frame_size=12),
    lambda: Fcat(lam=2, estimator_source="empty"),
    lambda: Scat(lam=2),
    Dfsa,
    Edfsa,
    AdaptiveBinarySplitting,
    AdaptiveQuerySplitting,
    Crdsa,
    SlottedAloha,
    Gen2Q,
]

channels = st.builds(
    ChannelModel,
    singleton_corrupt_prob=st.sampled_from([0.0, 0.1, 0.3]),
    ack_loss_prob=st.sampled_from([0.0, 0.1, 0.3]),
    collision_unusable_prob=st.sampled_from([0.0, 0.5, 1.0]),
    capture_prob=st.sampled_from([0.0, 0.3]),
)


@pytest.mark.parametrize("factory", PROTOCOL_FACTORIES,
                         ids=lambda f: f().name)
@given(n=st.integers(0, 70), channel=channels, seed=st.integers(0, 2 ** 20))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_protocol_invariants(factory, n, channel, seed):
    protocol = factory()
    population = TagPopulation.random(n, np.random.default_rng(seed))
    result = protocol.read_all(population, np.random.default_rng(seed + 1),
                               channel=channel)
    # Exactness: every tag read exactly once, none invented.
    assert result.n_read == n
    assert result.n_tags == n
    # Accounting partition.
    assert result.total_slots == (result.empty_slots
                                  + result.singleton_slots
                                  + result.collision_slots)
    assert result.empty_slots >= 0
    assert result.singleton_slots >= 0
    assert result.collision_slots >= 0
    # Time sanity (n = 0 sessions may be a single silent probe).
    if n > 0:
        assert 0.0 < result.duration_s < 3600.0
        assert result.throughput > 0
