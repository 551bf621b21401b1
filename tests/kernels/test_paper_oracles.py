"""The FCAT kernel against the paper's closed forms.

The kernel equivalence tests compare two engines that could share a bug;
these compare the kernel's own telemetry with the paper.  Per frame, with
``N`` active tags each reporting with probability ``p`` in each of ``f``
slots, the slot-type counts have the expectations of Eq. 7/9/10
(:mod:`repro.analysis.slot_distribution`).  Summed over a session's
frames, the observed counts must sit within a few standard deviations of
the summed expectations; a kernel drawing its slots at a biased ``p``
misses them by tens.

Per session, the mean-field model of :mod:`repro.analysis.session_model`
predicts the throughput (Table I: 201.3 tags/s for FCAT-2 at N = 10⁴);
a kernel whose estimator inverts Eq. 12 wrongly runs off the optimal
load and misses it by far more than estimator noise explains.
"""

from __future__ import annotations

import math
from statistics import mean

import pytest

from repro.analysis.session_model import predict_session
from repro.analysis.slot_distribution import (
    expected_collision_slots,
    expected_empty_slots,
    expected_singleton_slots,
)
from repro.core import estimator as estimator_module
from repro.core.fcat import Fcat
from repro.experiments.runner import rng_from_seed, spawn_run_seeds
from repro.kernels import fcat as fcat_kernel
from repro.kernels import native
from repro.kernels.fcat import batched_fcat_sessions
from repro.obs.scope import observe

N_TAGS = 10_000
RUNS = 4
#: Frames starting with fewer active tags are left out: the endgame's
#: capped p and tiny N say little about the law at scale.
MIN_ACTIVE = 1_000
#: Largest |z| the oracle accepts (two-sided false-alarm odds ≈ 6e-5
#: per slot type).
Z_BOUND = 4.0

_SLOT_TYPES = ("empty", "singleton", "collision")
_EXPECTATIONS = (expected_empty_slots, expected_singleton_slots,
                 expected_collision_slots)


def slot_type_z_scores(lam: int, seed: int,
                       n_tags: int = N_TAGS) -> dict[str, float]:
    """z of each summed slot-type count against Eq. 7/9/10.

    Sessions run one per batch, configured as the service configures a
    zone (``initial_estimate`` = N).  ``N`` at a frame's start is the
    previous frame's ``estimator_update.actual_remaining`` (``n_tags``
    for the first frame), ``p`` the frame's ``report_probability``.  Each
    slot is one multinomial draw, so a count summed over slots has
    variance ``Σ f q (1 - q)`` for its per-slot probability ``q``.  The
    Eq. 7/9/10 model holds ``N`` fixed through the frame while the kernel
    cancels the later transmissions of tags learned mid-frame; at these
    ``N`` that moves the sums by well under one standard deviation.
    """
    observed = dict.fromkeys(_SLOT_TYPES, 0.0)
    expected = dict.fromkeys(_SLOT_TYPES, 0.0)
    variance = dict.fromkeys(_SLOT_TYPES, 0.0)
    protocol = Fcat(lam=lam, initial_estimate=float(n_tags))
    for run_seed in spawn_run_seeds(seed, RUNS):
        with observe() as obs:
            batched_fcat_sessions(protocol, n_tags, [rng_from_seed(run_seed)])
        active = n_tags
        for event in obs.events.events:
            fields = event.fields
            if event.name == "estimator_update":
                active = fields["actual_remaining"]
                continue
            if event.name != "frame" or active < MIN_ACTIVE:
                continue
            slots = sum(fields[kind] for kind in _SLOT_TYPES)
            p = fields["report_probability"]
            for kind, expectation in zip(_SLOT_TYPES, _EXPECTATIONS):
                q = float(expectation(active, p, slots)) / slots
                observed[kind] += fields[kind]
                expected[kind] += slots * q
                variance[kind] += slots * q * (1.0 - q)
    assert expected["empty"] > 0, "no frame started at scale"
    return {kind: (observed[kind] - expected[kind])
            / math.sqrt(variance[kind]) for kind in _SLOT_TYPES}


@pytest.mark.parametrize("lam", [2, 3, 4])
def test_frame_slot_counts_match_eq_7_9_10(lam):
    z = slot_type_z_scores(lam, seed=20100562 + lam)
    assert max(abs(value) for value in z.values()) <= Z_BOUND, z


def _draw_at_a_biased_p(monkeypatch) -> None:
    """Mutant: slot counts drawn at 1.1·p while frames report p.

    The Python walk takes its counts from ``draw_slot_counts``; the native
    loop draws them in C, out of a patch's reach, so the mutant runs on
    the Python walk.
    """
    monkeypatch.setattr(native, "library", lambda: None)
    draw = fcat_kernel.draw_slot_counts

    def biased(rng, n_active, frame_size, p):
        return draw(rng, n_active, frame_size, min(1.1 * p, 1.0))

    monkeypatch.setattr(fcat_kernel, "draw_slot_counts", biased)


@pytest.mark.parametrize("lam", [2, 3, 4])
def test_a_kernel_drawing_at_a_biased_p_fails_the_oracle(lam, monkeypatch):
    _draw_at_a_biased_p(monkeypatch)
    z = slot_type_z_scores(lam, seed=20100562 + lam)
    assert max(abs(value) for value in z.values()) > Z_BOUND, z


#: Populations past N_TAGS.  A million tags takes 7-9 s per test on the
#: native walk and 25-41 s on the Python walk, so it runs only when asked
#: for (``-m slow``).
SCALES = [100_000, pytest.param(1_000_000, marks=pytest.mark.slow)]


@pytest.mark.parametrize("n_tags", SCALES)
@pytest.mark.parametrize("lam", [2, 3, 4])
def test_the_oracle_holds_at_scale(lam, n_tags):
    z = slot_type_z_scores(lam, seed=20100562 + lam, n_tags=n_tags)
    assert max(abs(value) for value in z.values()) <= Z_BOUND, z


@pytest.mark.parametrize("n_tags", SCALES)
@pytest.mark.parametrize("lam", [2, 3, 4])
def test_a_biased_kernel_fails_the_oracle_at_scale(lam, n_tags,
                                                   monkeypatch):
    _draw_at_a_biased_p(monkeypatch)
    z = slot_type_z_scores(lam, seed=20100562 + lam, n_tags=n_tags)
    assert max(abs(value) for value in z.values()) > Z_BOUND, z


#: Largest relative gap the session oracle accepts between the kernel's
#: mean tags/s and :func:`predict_session`.  The model assumes a
#: noiseless N_i; the kernel's estimator noise costs it 0.8-1.3 % at
#: N = 10⁴ (λ = 2/3/4), with a per-run spread near 0.5 %.
SESSION_TOLERANCE = 0.03


def session_throughput_gap(lam: int, seed: int) -> float:
    """Relative gap of the mean tags/s of ``RUNS`` sessions at
    ``N_TAGS`` from the mean-field prediction, configured as the service
    configures a zone (``initial_estimate`` = N)."""
    protocol = Fcat(lam=lam, initial_estimate=float(N_TAGS))
    results = batched_fcat_sessions(
        protocol, N_TAGS,
        [rng_from_seed(run_seed) for run_seed in spawn_run_seeds(seed,
                                                                 RUNS)])
    measured = mean(result.throughput for result in results)
    return measured / predict_session(N_TAGS, lam=lam).throughput - 1.0


@pytest.mark.parametrize("lam", [2, 3, 4])
def test_session_throughput_matches_the_session_model(lam):
    gap = session_throughput_gap(lam, seed=20100562 + lam)
    assert abs(gap) <= SESSION_TOLERANCE, gap


@pytest.mark.parametrize("lam", [2, 3, 4])
def test_eq_12_inverted_at_2_omega_fails_the_session_oracle(lam,
                                                            monkeypatch):
    """Mutant: the estimator inverts Eq. 12 with 2ω in place of ω, on
    the Python walk (the native loop's estimator is out of a patch's
    reach).  It misses the model by 9-44 %."""
    monkeypatch.setattr(native, "library", lambda: None)
    invert = estimator_module._invert_paper

    def inverted_at_2_omega(n_c, frame_size, p, omega):
        return invert(n_c, frame_size, p, 2.0 * omega)

    monkeypatch.setattr(estimator_module, "_invert_paper",
                        inverted_at_2_omega)
    gap = session_throughput_gap(lam, seed=20100562 + lam)
    assert abs(gap) > SESSION_TOLERANCE, gap
