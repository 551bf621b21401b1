"""FCAT kernel equivalence: batched_fcat_sessions vs the scalar engine.

Registered by the ``# repro: kernel`` contract on
:func:`repro.kernels.fcat.batched_fcat_sessions` (lint rule R15).  Three
layers of evidence:

* perfect-channel results are bit-identical to pinned digests (per
  lambda): a draw-free channel takes no channel uniform, so the one
  walk's consumption cannot drift unnoticed;
* batch composition never changes a session (dropout regression);
* paired same-seed runs agree statistically with the scalar engine on
  every headline metric -- kernel-v2 seed semantics promise the same
  process law under a different draw order, so the paired mean difference
  must be statistically zero.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core.fcat import Fcat
from repro.experiments.runner import rng_from_seed, spawn_run_seeds
from repro.kernels.fcat import _FcatKernelSession, batched_fcat_sessions
from repro.obs.scope import observe
from repro.service.interference import DEFAULT_INTERFERENCE
from repro.sim.channel import ChannelModel
from repro.sim.population import TagPopulation

#: Paired z-score bound: under equal means the probability of exceeding
#: it is ~7e-6 per metric, so the suite stays quiet across reruns while
#: any real law divergence (wrong slot class, lost resolution, skewed
#: estimator) blows past it within a few hundred runs.
Z_BOUND = 4.5

METRICS = ("throughput", "total_slots", "frames", "resolved_from_collision")


def _metric_values(result, metric: str) -> float:
    return float(getattr(result, metric))


def _paired_z(kernel_values, scalar_values) -> float:
    diff = np.asarray(kernel_values, float) - np.asarray(scalar_values, float)
    spread = diff.std(ddof=1)
    if spread == 0.0:
        return 0.0
    return float(diff.mean() / (spread / np.sqrt(len(diff))))


def _scalar_runs(protocol, n_tags: int, seed: int, runs: int,
                 channel=None) -> list:
    """The scalar engine's run_many loop, keeping per-run results."""
    population = TagPopulation.random(n_tags, np.random.default_rng(99))
    kwargs = {} if channel is None else {"channel": channel}
    return [protocol.read_all(population, rng_from_seed(child), **kwargs)
            for child in spawn_run_seeds(seed, runs)]


def _kernel_runs(protocol, n_tags: int, seed: int, runs: int,
                 channel=None) -> list:
    kwargs = {} if channel is None else {"channel": channel}
    return batched_fcat_sessions(
        protocol, n_tags,
        [rng_from_seed(child) for child in spawn_run_seeds(seed, runs)],
        **kwargs)


#: Perfect-channel kernel results of FCAT-λ on 300 tags, generators
#: ``default_rng(0..9)``: a digest over the ten full ``ReadingResult``s
#: (every field, the estimate trace included) and their slot totals.
#: Recorded from the two-body kernel this walk replaced; a draw-free
#: channel takes no channel uniform, so the bytes must not move.
PERFECT_CHANNEL_PINS = {
    2: ("d9619aa464c6deed",
        [661, 631, 661, 661, 631, 631, 601, 661, 601, 631]),
    3: ("6a45f3ec084d5d65",
        [571, 541, 541, 511, 541, 571, 511, 541, 541, 541]),
    4: ("d48d911f783c9295",
        [511, 511, 511, 481, 511, 601, 541, 541, 451, 541]),
    5: ("74353f39110165e8",
        [511, 481, 481, 481, 481, 571, 541, 541, 481, 511]),
    6: ("8903d2db02d633a8",
        [541, 541, 511, 512, 481, 481, 571, 481, 481, 511]),
}


def _results_digest(results) -> str:
    digest = hashlib.sha256()
    for result in results:
        digest.update(repr(dataclasses.asdict(result)).encode())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("lam", sorted(PERFECT_CHANNEL_PINS))
def test_perfect_channel_results_are_pinned(lam):
    """Perfect-channel kernel results are bit-identical to the pins.

    Any divergence is a change of the kernel's draw consumption or walk
    logic, not a statistical artifact, so this is an exact equality.
    """
    results = batched_fcat_sessions(
        Fcat(lam=lam), 300, [np.random.default_rng(seed)
                             for seed in range(10)])
    digest, total_slots = PERFECT_CHANNEL_PINS[lam]
    assert [result.total_slots for result in results] == total_slots
    assert _results_digest(results) == digest


def test_batch_composition_does_not_change_a_session():
    """Dropout regression: sessions own their generators.

    A batch of eight must produce, run for run, exactly the results of
    eight single-session batches -- sessions terminate at different
    frames and drop out of the lockstep sweep, and that reshuffling must
    never touch a survivor's stream.
    """
    protocol = Fcat(lam=2)
    seeds = spawn_run_seeds(1234, 8)
    together = batched_fcat_sessions(
        protocol, 80, [rng_from_seed(child) for child in seeds])
    alone = [batched_fcat_sessions(protocol, 80,
                                   [rng_from_seed(child)])[0]
             for child in seeds]
    assert together == alone
    # Different termination times are what makes this test bite.
    assert len({result.frames for result in together}) > 1


@pytest.mark.parametrize("lam,runs", [(2, 1000), (3, 400), (4, 400)])
def test_paired_runs_match_the_scalar_engine(lam, runs):
    protocol = Fcat(lam=lam)
    scalar = _scalar_runs(protocol, 100, seed=lam, runs=runs)
    kernel = _kernel_runs(protocol, 100, seed=lam, runs=runs)
    assert all(result.complete for result in kernel)
    for metric in METRICS:
        z = _paired_z([_metric_values(r, metric) for r in kernel],
                      [_metric_values(r, metric) for r in scalar])
        assert abs(z) < Z_BOUND, f"lam={lam} {metric}: |z|={abs(z):.2f}"


#: Impaired channels the walk's channel draws must carry: the ambient mix
#: of corrupted singletons, lost acks and unusable records; a capture
#: channel; the service's load-0.1 interference zone; and the worst
#: composite a request can produce (every ambient knob at its 0.5 cap
#: under full interference load).
IMPAIRED_CHANNELS = {
    "ambient": ChannelModel(singleton_corrupt_prob=0.05, ack_loss_prob=0.05,
                            collision_unusable_prob=0.1),
    "capture": ChannelModel(capture_prob=0.3, collision_unusable_prob=0.1),
    "interference-0.1": DEFAULT_INTERFERENCE.channel_for_load(0.1),
    "worst-composite": DEFAULT_INTERFERENCE.channel_for_load(
        1.0, base=ChannelModel(0.5, 0.5, 0.5, 0.5)),
}


@pytest.mark.parametrize("channel_name", sorted(IMPAIRED_CHANNELS))
@pytest.mark.parametrize("lam", [2, 4])
def test_paired_runs_match_on_an_impaired_channel(lam, channel_name):
    """Channel draws follow the scalar engine's law on every channel."""
    channel = IMPAIRED_CHANNELS[channel_name]
    protocol = Fcat(lam=lam)
    scalar = _scalar_runs(protocol, 60, seed=7, runs=300, channel=channel)
    kernel = _kernel_runs(protocol, 60, seed=7, runs=300, channel=channel)
    assert all(result.complete for result in kernel)
    for metric in METRICS:
        z = _paired_z([_metric_values(r, metric) for r in kernel],
                      [_metric_values(r, metric) for r in scalar])
        assert abs(z) < Z_BOUND, \
            f"lam={lam} {channel_name} {metric}: |z|={abs(z):.2f}"


def test_zigzag_config_is_rejected():
    with pytest.raises(ValueError, match="ZigZag"):
        _FcatKernelSession("FCAT-2", Fcat(lam=2, zigzag=True), 50,
                           np.random.default_rng(0))


def test_bootstrap_abort_config_is_rejected():
    with pytest.raises(ValueError, match="bootstrap abort"):
        _FcatKernelSession("FCAT-2", Fcat(lam=2, bootstrap_abort_after=8),
                           50, np.random.default_rng(0))


def _observed_pair(channel=None):
    """One scalar and one kernel session of FCAT-2 on 200 tags, observed."""
    protocol = Fcat(lam=2)
    population = TagPopulation.random(200, np.random.default_rng(99))
    kwargs = {} if channel is None else {"channel": channel}
    with observe() as scalar_obs:
        protocol.read_all(population, np.random.default_rng(5), **kwargs)
    with observe() as kernel_obs:
        result = batched_fcat_sessions(protocol, 200,
                                       [np.random.default_rng(5)],
                                       **kwargs)[0]
    scalar_names = {event.name for event in scalar_obs.events.events}
    return scalar_names, kernel_obs, result


def test_observed_kernel_emits_the_scalar_telemetry():
    """The scalar vocabulary, with resolutions counted per batch.

    On every channel the observed kernel emits the scalar events minus
    the per-slot ``anc_resolution``, one ``frame`` event per frame, and
    every resolution in the ``kernel.anc_resolved`` counter.
    """
    for channel in (None, IMPAIRED_CHANNELS["ambient"]):
        scalar_names, kernel_obs, result = _observed_pair(channel)
        kernel_events = kernel_obs.events.events
        assert "anc_resolution" in scalar_names
        assert {e.name for e in kernel_events} \
            == scalar_names - {"anc_resolution"}
        assert sum(1 for e in kernel_events if e.name == "frame") \
            == result.frames
        assert result.resolved_from_collision > 0
        assert kernel_obs.metrics.counter("kernel.anc_resolved").value \
            == result.resolved_from_collision
        assert result.complete


@pytest.mark.parametrize("lam", [2, 3, 4])
def test_observation_does_not_change_the_lean_run(lam):
    """Observing a perfect-channel session leaves every draw and result
    bit-identical to the unobserved run."""
    protocol = Fcat(lam=lam)
    seeds = spawn_run_seeds(lam, 4)
    plain = _kernel_runs(protocol, 500, seed=lam, runs=4)
    with observe():
        observed = batched_fcat_sessions(
            protocol, 500, [rng_from_seed(child) for child in seeds])
    assert observed == plain
