"""Engine selection and the batched entry point (run_batch).

Registered by the ``# repro: kernel`` contract on
:func:`repro.kernels.engine.run_batch`, whose scalar reference is
``run_single``.  Pins the support matrix, the scalar fallback's
bit-identity, and that the experiment stack (run_cell at any ``jobs=``)
produces identical results through the kernel engine regardless of
parallelism.
"""

from __future__ import annotations

import dataclasses
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
from repro.experiments.executor import CellSpec, execute_cells
from repro.experiments.runner import run_cell, run_single, spawn_run_seeds
from repro.kernels import engine
from repro.kernels.engine import batch_read_all, kernel_supported, run_batch
from repro.kernels.fcat import batched_fcat_sessions
from repro.sim.base import TagReadingProtocol
from repro.sim.channel import PERFECT_CHANNEL, ChannelModel
from repro.sim.result import ReadingResult, aggregate

NOISY = ChannelModel(ack_loss_prob=0.1)


def test_kernel_support_matrix():
    assert kernel_supported(Fcat(lam=2))
    assert kernel_supported(Fcat(lam=4), NOISY)  # the walk draws channel
    assert kernel_supported(Fcat(lam=3, estimator_source="empty",
                                 max_report_probability=1.0),
                            ChannelModel(capture_prob=0.2))
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


def test_run_batch_matches_the_scalar_law():
    children = spawn_run_seeds(11, 40)
    scalar = aggregate([run_single(Fcat(lam=2), 150, child)
                        for child in children])
    kernel = aggregate(run_batch(Fcat(lam=2), 150, children))
    assert kernel.runs == scalar.runs == 40
    assert kernel.n_tags == scalar.n_tags
    # Different draw orders, same process: the 40-run means must be close
    # (a loose sanity bound; tests/kernels/test_fcat_kernel.py holds the
    # tight statistical line).
    assert kernel.throughput_mean == pytest.approx(scalar.throughput_mean,
                                                   rel=0.1)


@pytest.mark.parametrize("protocol", [Fcat(lam=3), Scat(lam=2), Dfsa()])
def test_run_cell_kernel_engine_is_parallel_invariant(protocol):
    """Serial and worker-pool execution agree bitwise at any ``jobs=``.

    Kernel batches advance whole chunks in lockstep, but every session
    owns its child generator, so chunking must be unobservable.
    """
    serial = run_cell(protocol, 80, runs=12, seed=9)
    parallel = run_cell(protocol, 80, runs=12, seed=9, jobs=2)
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
                    spec = CellSpec(protocol=protocol, n_tags=n_tags,
                                    runs=3, seed=20100562, engine=engine)
                    started = time.perf_counter()
                    execute_cells([spec])
                    best[engine] = min(best[engine],
                                       time.perf_counter() - started)
            speedup = best["scalar"] / best["kernel"]
            if speedup < 2.0:
                slow.append(f"{protocol.name} N={n_tags}: x{speedup:.2f}")
    assert not slow, slow


def test_cell_keys_separate_the_engines():
    kernel = CellSpec(protocol=Fcat(lam=2), n_tags=100, runs=10, seed=7)
    scalar = dataclasses.replace(kernel, engine="scalar")
    assert kernel.engine == "kernel"
    assert kernel.key() != scalar.key()
    assert kernel.range_key() != scalar.range_key()
