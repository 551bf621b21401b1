"""Engine selection and the batched entry point (run_batch).

Registered by the ``# repro: kernel`` contract on
:func:`repro.kernels.engine.run_batch`, whose scalar reference is the
``run_many`` session loop.  Pins the support matrix, the scalar
fallback's bit-identity, and that the experiment stack (run_many,
run_cell at any ``jobs=``) produces identical results through the
kernel engine regardless of parallelism.
"""

from __future__ import annotations

import gc
import pickle
import time

import numpy as np
import pytest

from repro.air.timing import ICODE_TIMING
from repro.baselines.aloha import SlottedAloha
from repro.baselines.dfsa import Dfsa
from repro.core.fcat import Fcat
from repro.core.scat import Scat
from repro.experiments.result_cache import cell_key
from repro.experiments.runner import run_cell, run_single, spawn_run_seeds
from repro.kernels import engine
from repro.kernels.engine import (
    ENGINES,
    batch_read_all,
    kernel_supported,
    run_batch,
    validate_engine,
)
from repro.kernels.fcat import batched_fcat_sessions
from repro.sim.base import TagReadingProtocol, run_many
from repro.sim.channel import PERFECT_CHANNEL, ChannelModel
from repro.sim.population import TagPopulation
from repro.sim.result import ReadingResult

NOISY = ChannelModel(ack_loss_prob=0.1)


def test_validate_engine_accepts_exactly_the_known_engines():
    for engine in ENGINES:
        assert validate_engine(engine) == engine
    with pytest.raises(ValueError, match="unknown engine"):
        validate_engine("turbo")


def test_kernel_support_matrix():
    assert kernel_supported(Fcat(lam=2))
    assert kernel_supported(Fcat(lam=4), NOISY)  # the walk draws channel
    assert not kernel_supported(Fcat(lam=2, zigzag=True))
    assert not kernel_supported(Fcat(lam=2, bootstrap_abort_after=8))
    assert kernel_supported(Scat(lam=2))
    assert not kernel_supported(Scat(lam=2), NOISY)
    assert not kernel_supported(Scat(lam=2, pre_estimate_cv=0.1))
    assert kernel_supported(Dfsa())
    assert not kernel_supported(Dfsa(), ChannelModel(capture_prob=0.2))
    assert not kernel_supported(SlottedAloha())


def test_batch_read_all_returns_none_when_unsupported():
    rngs = [np.random.default_rng(0)]
    assert batch_read_all(SlottedAloha(), 50, rngs) is None
    assert batch_read_all(Scat(lam=2), 50, rngs, channel=NOISY) is None


@pytest.mark.parametrize("protocol,channel", [
    (Scat(lam=2, pre_estimate_cv=0.3), PERFECT_CHANNEL),
    (Dfsa(), ChannelModel(capture_prob=0.2)),
    (SlottedAloha(), PERFECT_CHANNEL),
    (Fcat(lam=2, bootstrap_abort_after=8), PERFECT_CHANNEL),
])
def test_unsupported_configs_fall_back_bit_identically(protocol, channel):
    """run_batch on an unsupported config IS the scalar chunk."""
    children = spawn_run_seeds(42, 4)
    batched = run_batch(protocol, 60, children, channel=channel)
    scalar = [run_single(protocol, 60, child, channel=channel)
              for child in children]
    assert batched == scalar


class _DropsOneTag(TagReadingProtocol):
    """A protocol whose every session misses one tag."""

    name = "drops-one"

    def read_all(self, population, rng, channel=PERFECT_CHANNEL,
                 timing=ICODE_TIMING, trace=None):
        n_tags = len(population)
        return ReadingResult(protocol=self.name, n_tags=n_tags,
                             n_read=n_tags - 1, singleton_slots=n_tags,
                             timing=timing)


def test_incomplete_read_raises_on_an_unpickled_perfect_channel(
        monkeypatch):
    """Worker processes receive a pickled copy of the channel; the
    completeness guard must still recognise it as the perfect channel."""
    channel = pickle.loads(pickle.dumps(PERFECT_CHANNEL))
    assert channel is not PERFECT_CHANNEL
    child = spawn_run_seeds(3, 1)[0]
    with pytest.raises(RuntimeError, match="perfect channel"):
        run_single(_DropsOneTag(), 20, child, channel=channel)
    with pytest.raises(RuntimeError, match="perfect channel"):
        run_batch(_DropsOneTag(), 20, [child], channel=channel)
    # A kernel-supported protocol takes run_batch's own guard.
    monkeypatch.setattr(
        engine, "batch_read_all",
        lambda protocol, n_tags, rngs, **kwargs: [
            ReadingResult(protocol=protocol.name, n_tags=n_tags,
                          n_read=n_tags - 1) for _ in rngs])
    with pytest.raises(RuntimeError, match="perfect channel"):
        run_batch(Fcat(lam=2), 20, [child], channel=channel)
    population = TagPopulation.random(20, np.random.default_rng(0))
    with pytest.raises(RuntimeError, match="perfect channel"):
        run_many(Fcat(lam=2), population, runs=1, seed=3, channel=channel,
                 engine="kernel")


@pytest.mark.parametrize("enabled", [True, False])
def test_kernel_batches_pause_the_cyclic_collector(monkeypatch, enabled):
    """The collector is off while sessions run and restored afterwards."""
    seen = []

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return batched_fcat_sessions(*args, **kwargs)

    monkeypatch.setattr(engine, "batched_fcat_sessions", spy)
    (gc.enable if enabled else gc.disable)()
    try:
        results = batch_read_all(Fcat(lam=2), 20, [np.random.default_rng(0)])
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert seen == [False]
    assert results[0].complete


def test_run_many_kernel_engine_matches_the_scalar_law():
    population = TagPopulation.random(150, np.random.default_rng(99))
    scalar = run_many(Fcat(lam=2), population, runs=40, seed=11)
    kernel = run_many(Fcat(lam=2), population, runs=40, seed=11,
                      engine="kernel")
    assert kernel.runs == scalar.runs == 40
    assert kernel.n_tags == scalar.n_tags
    # Different draw orders, same process: the 40-run means must be close
    # (a loose sanity bound; tests/kernels/test_fcat_kernel.py holds the
    # tight statistical line).
    assert kernel.throughput_mean == pytest.approx(scalar.throughput_mean,
                                                   rel=0.1)
    with pytest.raises(ValueError, match="unknown engine"):
        run_many(Fcat(lam=2), population, runs=2, seed=1, engine="turbo")


def test_run_many_kernel_engine_falls_back_for_zigzag():
    """Unsupported configs fall through to the scalar loop bit-for-bit."""
    population = TagPopulation.random(120, np.random.default_rng(99))
    protocol = Fcat(lam=2, zigzag=True)
    scalar = run_many(protocol, population, runs=10, seed=3)
    kernel = run_many(protocol, population, runs=10, seed=3,
                      engine="kernel")
    assert kernel == scalar


@pytest.mark.parametrize("protocol", [Fcat(lam=3), Scat(lam=2), Dfsa()])
def test_run_cell_kernel_engine_is_parallel_invariant(protocol):
    """Serial and worker-pool execution agree bitwise at any ``jobs=``.

    Kernel batches advance whole chunks in lockstep, but every session
    owns its child generator, so chunking must be unobservable.
    """
    serial = run_cell(protocol, 80, runs=12, seed=9, engine="kernel")
    parallel = run_cell(protocol, 80, runs=12, seed=9, jobs=2,
                        engine="kernel")
    assert serial == parallel


def test_kernel_engine_beats_scalar_on_smoke_cells():
    """The frame-at-once kernels are >= 2x the per-slot engine even on
    small cells (full N = 10^4 cells reach 8-40x; see BENCH_5.json).

    Engines alternate inside each repeat and the best of three is kept
    per engine, so both see the same transient machine state.
    """
    slow = []
    for protocol in (Fcat(lam=2), Fcat(lam=3), Fcat(lam=4), Dfsa()):
        for n_tags in (200, 500):
            best = {"scalar": float("inf"), "kernel": float("inf")}
            for _ in range(3):
                for engine in best:
                    started = time.perf_counter()
                    run_cell(protocol, n_tags, 3, 20100562, engine=engine)
                    best[engine] = min(best[engine],
                                       time.perf_counter() - started)
            speedup = best["scalar"] / best["kernel"]
            if speedup < 2.0:
                slow.append(f"{protocol.name} N={n_tags}: x{speedup:.2f}")
    assert not slow, slow


def test_cell_keys_separate_the_engines():
    spec = (Fcat(lam=2), 100, 10, 7, PERFECT_CHANNEL, ICODE_TIMING)
    assert cell_key(*spec) == cell_key(*spec, engine="scalar")
    assert cell_key(*spec) != cell_key(*spec, engine="kernel")
