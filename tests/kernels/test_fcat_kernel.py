"""FCAT kernel equivalence: batched_fcat_sessions vs the scalar engine.

Registered by the ``# repro: kernel`` contract on
:func:`repro.kernels.fcat.batched_fcat_sessions` (lint rule R15).  Three
layers of evidence:

* the lean replay body is bit-for-bit the exact replay body whenever its
  preconditions hold (pinned per lambda);
* batch composition never changes a session (dropout regression);
* paired same-seed runs agree statistically with the scalar engine on
  every headline metric -- kernel-v2 seed semantics promise the same
  process law under a different draw order, so the paired mean difference
  must be statistically zero.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fcat import Fcat
from repro.experiments.runner import rng_from_seed, spawn_run_seeds
from repro.kernels.fcat import _FcatKernelSession, batched_fcat_sessions
from repro.obs.scope import observe
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


@pytest.mark.parametrize("lam", [2, 3, 4, 5, 6])
def test_lean_replay_is_bitwise_the_exact_replay(lam):
    """Same generator, lean on vs forced off: identical results.

    The lean body skips unobservable bookkeeping but must replay the
    same draws to the same outcome; any divergence is a kernel bug, not
    a statistical artifact, so this is an exact equality.
    """
    protocol = Fcat(lam=lam)
    for seed in range(10):
        results = []
        for force_exact in (False, True):
            session = _FcatKernelSession(protocol.name, protocol, 300,
                                         np.random.default_rng(seed))
            assert session.lean, "perfect channel must enable the lean body"
            if force_exact:
                session.lean = False
            while not session.step():
                pass
            results.append(session.result)
        assert results[0] == results[1]


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


def test_paired_runs_match_on_an_impaired_channel():
    """The exact replay body carries channel draws (no lean fast path)."""
    channel = ChannelModel(singleton_corrupt_prob=0.05, ack_loss_prob=0.05,
                           collision_unusable_prob=0.1)
    protocol = Fcat(lam=2)
    scalar = _scalar_runs(protocol, 60, seed=7, runs=300, channel=channel)
    kernel = _kernel_runs(protocol, 60, seed=7, runs=300, channel=channel)
    assert all(result.complete for result in kernel)
    for metric in METRICS:
        z = _paired_z([_metric_values(r, metric) for r in kernel],
                      [_metric_values(r, metric) for r in scalar])
        assert abs(z) < Z_BOUND, f"impaired {metric}: |z|={abs(z):.2f}"


def test_zigzag_config_is_rejected():
    with pytest.raises(ValueError, match="ZigZag"):
        _FcatKernelSession("FCAT-2", Fcat(lam=2, zigzag=True), 50,
                           np.random.default_rng(0))


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
    """The scalar vocabulary, with resolutions counted per frame.

    On a perfect channel the observed kernel runs its lean body: the
    scalar events minus the per-slot ``anc_resolution``, one ``frame``
    event per frame, and every resolution in the ``kernel.anc_resolved``
    counter.  An impaired channel runs the exact body and still emits the
    full scalar event set, per-slot resolutions included.
    """
    scalar_names, kernel_obs, result = _observed_pair()
    kernel_events = kernel_obs.events.events
    assert {e.name for e in kernel_events} \
        == scalar_names - {"anc_resolution"}
    assert sum(1 for e in kernel_events if e.name == "frame") == result.frames
    assert result.resolved_from_collision > 0
    assert kernel_obs.metrics.counter("kernel.anc_resolved").value \
        == result.resolved_from_collision
    assert result.complete

    impaired = ChannelModel(singleton_corrupt_prob=0.05, ack_loss_prob=0.05,
                            collision_unusable_prob=0.1)
    scalar_names, kernel_obs, result = _observed_pair(impaired)
    kernel_events = kernel_obs.events.events
    assert {e.name for e in kernel_events} == scalar_names
    assert "anc_resolution" in scalar_names
    resolved = sum(e.fields["resolved"] for e in kernel_events
                   if e.name == "anc_resolution")
    assert resolved == result.resolved_from_collision \
        == kernel_obs.metrics.counter("kernel.anc_resolved").value
    assert result.complete


@pytest.mark.parametrize("lam", [2, 3, 4])
def test_observation_does_not_change_the_lean_run(lam):
    """Observing a perfect-channel session keeps it on the lean body and
    leaves every draw and result bit-identical to the unobserved run."""
    protocol = Fcat(lam=lam)
    seeds = spawn_run_seeds(lam, 4)
    plain = _kernel_runs(protocol, 500, seed=lam, runs=4)
    with observe():
        session = _FcatKernelSession(protocol.name, protocol, 500,
                                     np.random.default_rng(0))
        assert session.obs is not None and session.lean
        observed = batched_fcat_sessions(
            protocol, 500, [rng_from_seed(child) for child in seeds])
    assert observed == plain
