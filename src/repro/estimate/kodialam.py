"""Kodialam-Nandagopal cardinality estimators (paper reference [24]).

Closed forms over a probe frame of size ``L`` with persistence ``p`` and
load ``t = N p / L``:

* **Zero Estimator (ZE)** -- inverts ``E[n0] = L (1 - p/L)^N``:
  ``N_ZE = ln(n0/L) / ln(1 - p/L)``.  Its coefficient of variation is
  ``~ sqrt(e^t - 1) / (t sqrt(L))`` (delta method on the Poisson limit),
  minimized near ``t ~ 1.59``.
* **Collision Estimator (CE)** -- numerically inverts
  ``E[nc] = L (1 - e^{-t} (1 + t))``.

:func:`estimate_tag_count` packages them into the practical procedure:
double the frame out of saturation, size it for the sweet-spot load, then
average frames until a target accuracy is reached -- the "arbitrary
accuracy" pre-step SCAT assumes (paper section IV-C).  Probe slots only
need slot-occupancy *detection*, so they are far shorter than ID slots;
:func:`probe_time_seconds` accounts for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.air.timing import ICODE_TIMING, TimingModel
from repro.estimate.probe import ProbeFrame, run_probe_frame

#: Load t = Np/L at which the Zero Estimator's variance is smallest.
ZE_OPTIMAL_LOAD = 1.59

#: Bits a probe slot needs on the air (occupancy detection, not an ID).
PROBE_SLOT_BITS = 10


def zero_estimator(frame: ProbeFrame) -> float | None:
    """ZE: invert the empty-slot count; ``None`` if the frame saturated."""
    if frame.empty == 0:
        return None  # every slot busy: the frame tells us only "N is large"
    if frame.empty == frame.frame_size:
        return 0.0
    ratio = frame.empty / frame.frame_size
    return math.log(ratio) / math.log(1.0 - frame.persistence
                                      / frame.frame_size)


def collision_estimator(frame: ProbeFrame) -> float | None:
    """CE: invert the collision-slot count; ``None`` if the frame saturated."""
    # scipy loads on first call; serving never calls this.
    from scipy import optimize

    if frame.collision >= frame.frame_size:
        return None
    if frame.collision == 0:
        # No collisions: the singleton count is exact in expectation.
        return frame.singleton / frame.persistence
    target = frame.collision / frame.frame_size

    def g(load: float) -> float:
        return 1.0 - math.exp(-load) * (1.0 + load) - target

    load = optimize.brentq(g, 1e-12, 80.0)
    return load * frame.frame_size / frame.persistence


def ze_coefficient_of_variation(load: float, frame_size: int) -> float:
    """Approximate CV of one ZE reading at the given load."""
    if load <= 0:
        raise ValueError("load must be positive")
    if frame_size < 1:
        raise ValueError("frame_size must be >= 1")
    return math.sqrt(math.exp(load) - 1.0) / (load * math.sqrt(frame_size))


@dataclass(frozen=True)
class CardinalityEstimate:
    """Result of the multi-frame estimation procedure."""

    estimate: float
    frames_used: int
    total_probe_slots: int
    achieved_cv: float
    per_frame_estimates: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.estimate < 0:
            raise ValueError("estimate must be non-negative")


def estimate_tag_count(n_tags: int, rng: np.random.Generator,
                       target_cv: float = 0.05,
                       initial_frame_size: int = 16,
                       persistence: float = 1.0,
                       estimator: str = "zero",
                       max_frames: int = 10_000) -> CardinalityEstimate:
    """Run probe frames against a (simulated) population of ``n_tags``.

    Doubles the frame size until the Zero Estimator un-saturates, re-sizes
    the frame for the ZE sweet-spot load, then keeps probing until the
    averaged estimate's CV falls below ``target_cv``.
    """
    if not 0.0 < target_cv < 1.0:
        raise ValueError("target_cv must be in (0, 1)")
    if estimator not in ("zero", "collision"):
        raise ValueError(f"unknown estimator {estimator!r}")
    invert = zero_estimator if estimator == "zero" else collision_estimator
    frame_size = initial_frame_size
    frames_used = 0
    total_slots = 0
    estimates: list[float] = []
    working: float | None = None
    while frames_used < max_frames:
        frame = run_probe_frame(n_tags, frame_size, persistence, rng)
        frames_used += 1
        total_slots += frame.frame_size
        value = invert(frame)
        if value is None or (estimator == "zero"
                             and frame.empty < 0.05 * frame.frame_size):
            # Saturated or nearly so: the ZE's log blows its bias up when
            # only a handful of slots are empty.  Treat as "N is large",
            # double the frame, and keep the reading out of the average.
            frame_size *= 2
            continue
        estimates.append(value)
        working = sum(estimates) / len(estimates)
        if working < 1.0 and len(estimates) >= 3:
            # A (near-)empty deployment: three quiet frames settle it; the
            # CV formula is meaningless at N ~ 0.
            return CardinalityEstimate(
                estimate=max(working, 0.0), frames_used=frames_used,
                total_probe_slots=total_slots, achieved_cv=target_cv,
                per_frame_estimates=tuple(estimates))
        # Re-center the frame on the sweet-spot load for the next round.
        frame_size = max(int(round(persistence * max(working, 1.0)
                                   / ZE_OPTIMAL_LOAD)), initial_frame_size)
        load = persistence * max(working, 1.0) / frame_size
        single_cv = ze_coefficient_of_variation(max(load, 1e-6), frame_size)
        achieved = single_cv / math.sqrt(len(estimates))
        if achieved <= target_cv:
            return CardinalityEstimate(
                estimate=max(working, 0.0), frames_used=frames_used,
                total_probe_slots=total_slots, achieved_cv=achieved,
                per_frame_estimates=tuple(estimates))
    raise RuntimeError("estimation did not reach the target accuracy within "
                       f"{max_frames} probe frames")


def probe_time_seconds(total_probe_slots: int, frames: int,
                       timing: TimingModel = ICODE_TIMING) -> float:
    """Air time of the pre-step: short detection slots plus frame adverts."""
    if total_probe_slots < 0 or frames < 0:
        raise ValueError("counts must be non-negative")
    slot = timing.guard_time + timing.transmission_time(PROBE_SLOT_BITS)
    return total_probe_slots * slot + frames * timing.advertisement_duration
