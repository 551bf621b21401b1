"""Optimal report probability (paper section IV-C).

With ``N_i`` participating tags each transmitting with probability ``p_i``, the
transmitter count is ``Binomial(N_i, p_i)`` and a slot is *useful* when 1..λ
tags transmit (a singleton yields an ID now; a k-collision with ``k <= λ``
yields one later).  In the Poisson limit with ``ω = N_i p_i`` the useful-slot
probability is ``sum_{k=1..λ} ω^k / k! * e^{-ω}``; differentiating gives the
beautifully compact optimality condition

    ω^λ = λ!   ⇒   ω* = (λ!)^{1/λ}

which yields the paper's constants 1.414 (λ=2), 1.817 (λ=3), 2.213 (λ=4).
This module provides the closed form, the Poisson objective itself, and an
exact finite-``N`` optimisation of the binomial objective for validation
(Table IV checks the closed form against exhaustive search).
"""

from __future__ import annotations

import math

import numpy as np


def optimal_omega(lam: int) -> float:
    """The Poisson-limit optimal load ``ω* = (λ!)^{1/λ}``."""
    if lam < 1:
        raise ValueError("lam must be >= 1")
    return math.factorial(lam) ** (1.0 / lam)


def useful_slot_probability(omega: float, lam: int) -> float:
    """P(1 <= X <= λ) for ``X ~ Poisson(ω)`` -- Eq. 4 generalized to any λ."""
    if omega < 0:
        raise ValueError("omega must be non-negative")
    if lam < 1:
        raise ValueError("lam must be >= 1")
    return float(sum(omega ** k / math.factorial(k) for k in range(1, lam + 1))
                 * math.exp(-omega))


def useful_slot_probability_binomial(p: float, n: int, lam: int) -> float:
    """Exact P(1 <= X <= λ) for ``X ~ Binomial(n, p)`` -- Eq. 2."""
    # scipy loads on first call; serving never calls this.
    from scipy import stats

    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if n < 0 or lam < 1:
        raise ValueError("n must be >= 0 and lam >= 1")
    upper = min(lam, n)
    return float(sum(stats.binom.pmf(k, n, p) for k in range(1, upper + 1)))


def optimal_report_probability(lam: int, n_remaining: float,
                               cap: float = 1.0) -> float:
    """The per-slot report probability ``p_i = ω*/N_i``, capped.

    The cap matters in the endgame: with two tags left and ``p = 1`` both
    would transmit in *every* slot, producing an endless stream of identical,
    unresolvable 2-collisions.  Any ``cap < 1`` breaks the symmetry.
    """
    if not 0.0 < cap <= 1.0:
        raise ValueError("cap must be in (0, 1]")
    if n_remaining <= 0:
        raise ValueError("n_remaining must be positive")
    return min(optimal_omega(lam) / n_remaining, cap)


def optimal_omega_exact(lam: int, n: int) -> float:
    """Numerically maximize the exact binomial objective; returns ``n * p*``.

    Validates that the Poisson-limit constant is accurate for realistic
    populations (for ``n >= 100`` the two agree to three decimals).
    """
    # scipy loads on first call; serving never calls this.
    from scipy import optimize

    if n < 1:
        raise ValueError("n must be >= 1")

    def negative_objective(p: float) -> float:
        return -useful_slot_probability_binomial(p, n, lam)

    upper = min(1.0, 5.0 * max(lam, 1) / n) if n > 5 * lam else 1.0
    solution = optimize.minimize_scalar(
        negative_objective, bounds=(1e-9, upper), method="bounded",
        options={"xatol": upper * 1e-6})
    return float(solution.x) * n


def slot_type_probabilities(omega: float) -> tuple[float, float, float]:
    """Poisson-limit (empty, singleton, collision) slot probabilities."""
    if omega < 0:
        raise ValueError("omega must be non-negative")
    empty = math.exp(-omega)
    singleton = omega * math.exp(-omega)
    return empty, singleton, 1.0 - empty - singleton


def expected_slots_per_tag(omega: float, lam: int,
                           resolvable_fraction: float = 1.0) -> float:
    """Expected slots consumed per identified tag at load ``ω``.

    Each useful slot (1..λ transmitters, resolvable) eventually yields exactly
    one ID, so slots-per-tag is the reciprocal of the useful-slot probability;
    ``resolvable_fraction`` discounts collision slots lost to noise.
    """
    if not 0.0 <= resolvable_fraction <= 1.0:
        raise ValueError("resolvable_fraction must be in [0, 1]")
    singleton = omega * math.exp(-omega)
    collisions = useful_slot_probability(omega, lam) - singleton
    useful = singleton + collisions * resolvable_fraction
    if useful <= 0:
        return float("inf")
    return 1.0 / useful


def np_vectorized_useful_probability(omegas: np.ndarray, lam: int) -> np.ndarray:
    """Vectorized :func:`useful_slot_probability` for plotting sweeps."""
    omegas = np.asarray(omegas, dtype=np.float64)
    total = np.zeros_like(omegas)
    for k in range(1, lam + 1):
        total += omegas ** k / math.factorial(k)
    return total * np.exp(-omegas)
