"""The FCAT kernel against the paper's closed forms (ROADMAP item 4).

The kernel equivalence tests compare two engines that could share a bug;
these compare the kernel's own telemetry with the paper.  Per frame, with
``N`` active tags each reporting with probability ``p`` in each of ``f``
slots, the slot-type counts have the expectations of Eq. 7/9/10
(:mod:`repro.analysis.slot_distribution`).  Summed over a session's
frames, the observed counts must sit within a few standard deviations of
the summed expectations; a kernel drawing its slots at a biased ``p``
misses them by tens.
"""

from __future__ import annotations

import math

import pytest

from repro.analysis.slot_distribution import (
    expected_collision_slots,
    expected_empty_slots,
    expected_singleton_slots,
)
from repro.core.fcat import Fcat
from repro.experiments.runner import rng_from_seed, spawn_run_seeds
from repro.kernels import fcat as fcat_kernel
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


def slot_type_z_scores(lam: int, seed: int) -> dict[str, float]:
    """z of each summed slot-type count against Eq. 7/9/10.

    Sessions run one per batch, configured as the service configures a
    zone (``initial_estimate`` = N).  ``N`` at a frame's start is the
    previous frame's ``estimator_update.actual_remaining`` (``N_TAGS``
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
    protocol = Fcat(lam=lam, initial_estimate=float(N_TAGS))
    for run_seed in spawn_run_seeds(seed, RUNS):
        with observe() as obs:
            batched_fcat_sessions(protocol, N_TAGS, [rng_from_seed(run_seed)])
        active = N_TAGS
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


@pytest.mark.parametrize("lam", [2, 3, 4])
def test_a_kernel_drawing_at_a_biased_p_fails_the_oracle(lam, monkeypatch):
    """Mutant: slot counts drawn at 1.1·p while frames report p."""
    draw = fcat_kernel.draw_slot_counts

    def biased(rng, n_active, frame_size, p):
        return draw(rng, n_active, frame_size, min(1.1 * p, 1.0))

    monkeypatch.setattr(fcat_kernel, "draw_slot_counts", biased)
    z = slot_type_z_scores(lam, seed=20100562 + lam)
    assert max(abs(value) for value in z.values()) > Z_BOUND, z
