"""FCAT's embedded tag-count estimator (paper section V-C).

After each frame the reader counts the collision slots ``n_c`` and inverts the
expectation

    E(n_c) = f * (1 - (1-p)^(N-1) * (1 - p + N p))          (Eq. 10)

to estimate the number ``N_i`` of tags that participated in the frame.  The
paper's closed form (Eq. 12) substitutes the nominal load ``omega`` for
``N_i * p_i``:

    N_hat = [ln(1 - n_c/f) - ln(1 - p + omega)] / ln(1 - p) + 1

The estimate kept is a **responsive** one of the tags still participating,
used to set the next frame's report probability: an EWMA (weight
:data:`EWMA_WEIGHT` on the newest frame) over the per-frame inversions.
Per-frame estimates have relative standard deviation
``sqrt(V(N_hat/N)) ~ 11-12%`` at f = 30 (the appendix's Eq. 25 gives
16-18% for the exact inversion; Eq. 12's nominal-load slope scales it by
``omega / (1 + omega)``), plenty for choosing ``p`` because the
useful-slot probability is flat around the optimum, and -- crucially --
the estimate tracks the population as tags leave.  (The paper's cumulative
average of total-population samples reacts too slowly in the endgame: a
+1% error on N = 10 000 total is a +100 error on the last handful of tags,
which starves the tail with near-zero report probabilities.)  Mode
``"last"`` keeps the newest inversion alone and method ``"exact"`` inverts
numerically; a session always runs Eq. 12 in mode ``"ewma"``, and the
variance oracle inverts single frames with the other two.

Boundary frames the formula cannot invert are handled explicitly: an
all-collision frame means the current guess is far too low (double and
re-probe -- this is how the protocol bootstraps from a blind initial guess).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: Weight of the newest frame in mode "ewma".
EWMA_WEIGHT = 0.6

_ESTIMATOR_METHODS = ("paper", "exact")
_ESTIMATOR_MODES = ("ewma", "last")
_ESTIMATOR_SOURCES = ("collision", "empty")


def invert_empty_count(n_0: int, frame_size: int, p: float) -> float:
    """Estimate N from the empty-slot count: ``E(n0) = f (1-p)^N`` (Eq. 7).

    Valid for ``0 < n_0 <= frame_size``; a frame with no empty slots carries
    only the message "N is large".
    """
    if not 0 < n_0 <= frame_size:
        raise ValueError("n_0 must be in (0, frame_size]")
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    return math.log(n_0 / frame_size) / math.log(1.0 - p)


def _invert_paper(n_c: float, frame_size: int, p: float,
                  omega: float) -> float:
    numerator = math.log(1.0 - n_c / frame_size) - math.log(1.0 - p + omega)
    return numerator / math.log(1.0 - p) + 1.0


def _invert_exact(n_c: float, frame_size: int, p: float) -> float:
    # scipy loads on first call; serving never calls this.
    from scipy import optimize

    if n_c == 0:
        return 0.0
    target = 1.0 - n_c / frame_size

    def g(x: float) -> float:
        return (1.0 + x) * math.exp(-x) - target

    load = optimize.brentq(g, 1e-12, 60.0)
    return load / p


def invert_collision_count(n_c: int, frame_size: int, p: float,
                           omega: float) -> float:
    """The paper's closed-form estimator N_hat (Eq. 12).

    Valid for ``0 <= n_c < frame_size`` and ``0 < p < 1``.
    """
    if not 0 <= n_c < frame_size:
        raise ValueError("n_c must be in [0, frame_size)")
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    return _invert_paper(float(n_c), frame_size, p, omega)


def invert_collision_count_exact(n_c: int, frame_size: int, p: float) -> float:
    """Exact inversion of the Poisson-form expectation.

    Solves ``(1 + x) e^{-x} = 1 - n_c/f`` for the load ``x = N p`` (the
    left-hand side is strictly decreasing for ``x > 0``), then returns
    ``x / p``.  Unlike Eq. 12 this does not assume the frame ran at the
    nominal load omega, so it stays unbiased while the estimate converges.
    """
    if not 0 <= n_c < frame_size:
        raise ValueError("n_c must be in [0, frame_size)")
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    return _invert_exact(float(n_c), frame_size, p)


@dataclass
class EmbeddedEstimator:
    """Running estimate of how many tags are still participating.

    One instance lives inside an FCAT session.  Call :meth:`remaining` before
    each frame to size the report probability, and :meth:`update` after each
    frame with the observed collision count and identification progress.
    """

    omega: float
    frame_size: int
    initial_guess: float = 64.0
    #: Inversion formula: "paper" (Eq. 12) or "exact" (numerical).
    method: str = "paper"
    #: How per-frame estimates combine: "ewma" or "last".
    mode: str = "ewma"
    #: Which slot count to invert: "collision" (the paper's choice, lowest
    #: variance) or "empty" (higher variance -- section V-C notes this --
    #: but immune to the capture effect, which silently converts collision
    #: slots into apparent singletons and biases the collision count).
    source: str = "collision"
    _remaining: float = field(init=False)
    #: Whether a frame has been inverted yet (else still bootstrapping).
    _has_samples: bool = field(init=False, default=False)

    def __post_init__(self) -> None:
        if self.initial_guess < 1:
            raise ValueError("initial_guess must be >= 1")
        if self.frame_size < 1:
            raise ValueError("frame_size must be >= 1")
        if self.method not in _ESTIMATOR_METHODS:
            raise ValueError(f"unknown estimator method {self.method!r}")
        if self.mode not in _ESTIMATOR_MODES:
            raise ValueError(f"unknown estimator mode {self.mode!r}")
        if self.source not in _ESTIMATOR_SOURCES:
            raise ValueError(f"unknown estimator source {self.source!r}")
        self._remaining = float(self.initial_guess)

    def remaining(self) -> float:
        """Estimated number of tags still participating (never below 1)."""
        return max(self._remaining, 1.0)

    def update(self, n_c: int, p: float, identified_at_frame_start: int,
               identified_at_frame_end: int,
               n_empty: int | None = None) -> None:
        """Fold one frame's slot counts into the running estimate.

        ``n_empty`` is only needed when ``source == "empty"``.
        """
        if identified_at_frame_end < identified_at_frame_start:
            raise ValueError("identification count cannot decrease")
        newly_identified = identified_at_frame_end - identified_at_frame_start
        if self.source == "empty" and n_empty is None:
            raise ValueError('source == "empty" requires n_empty')
        saturated = (n_c >= self.frame_size if self.source == "collision"
                     else n_empty == 0)
        if saturated and not self._has_samples:
            # Saturated frame while still blind: the population dwarfs the
            # guess.  Double and re-probe (no invertible signal yet).
            self._remaining = max(self._remaining * 2.0, 2.0)
            return
        if p <= 0.0 or p >= 1.0:
            return  # degenerate advertisement; nothing to invert
        if self.source == "empty":
            # Invert E(n0) = f (1-p)^N; a saturated (no-empties) frame is
            # inverted at the half-count boundary, as below.
            effective_n0 = max(float(n_empty), 0.5)  # type: ignore[arg-type]
            participating = (math.log(effective_n0 / self.frame_size)
                             / math.log(1.0 - p))
        else:
            if saturated:
                # Post-bootstrap saturated frame (common for tiny f, where
                # P(all slots collide) is non-negligible): ln(1 - n_c/f)
                # cannot be evaluated, so invert at the half-count boundary
                # instead of doubling -- doubling on every sixth frame at
                # f = 2 would pump the estimate into a livelock.
                effective_nc = self.frame_size - 0.5
            else:
                effective_nc = float(n_c)
            if self.method == "paper":
                participating = _invert_paper(effective_nc, self.frame_size,
                                              p, self.omega)
            else:
                participating = _invert_exact(effective_nc, self.frame_size,
                                              p)
        participating = max(participating, 0.0)
        self._has_samples = True
        fresh = max(participating - newly_identified, 0.0)
        if self.mode == "last":
            self._remaining = fresh
        else:
            prior = max(self._remaining - newly_identified, 0.0)
            self._remaining = (EWMA_WEIGHT * fresh
                               + (1.0 - EWMA_WEIGHT) * prior)

    def force_at_least(self, remaining: float) -> None:
        """Raise the estimate after external evidence of survivors.

        Used after a termination probe hits a collision: at least ``remaining``
        tags are provably still active even if the estimate says none are.
        """
        self._remaining = max(self._remaining, remaining)
