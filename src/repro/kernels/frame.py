"""Frame-at-once transmission drawing for the vectorized kernels.

The scalar engine advances a frame slot by slot: one ``Binomial(n, p)``
draw for the slot's transmitter count, then that many distinct tags
(:meth:`repro.sim.active_set.ActiveSet.sample_binomial`).  Slot outcomes
are conditionally independent given the report probability ``p``, so the
kernels draw the *whole frame* in two RNG calls:

1. ``counts ~ Binomial(n_active, p)^frame_size`` -- every slot's
   transmitter count in one vectorized call (the per-slot law is exactly
   the scalar engine's);
2. one uniform tag *rank* per transmission, sliced from
   :class:`RankSource`'s pre-drawn uniform block and consumed
   segment-by-segment (slot-major) during the replay walk.  A frame
   whose ranks are provably unobservable (every slot an unresolvable
   ``k > lam`` collision) skips the draw entirely -- under kernel-v2
   seed semantics the consumption pattern is part of the kernel's own
   contract, not the scalar engine's.

Step 2 draws ranks with replacement; the scalar slot law requires the
``k`` transmitters of one slot to be *distinct*.  Duplicates inside a
slot segment are astronomically rare at the nominal load (``k(k-1)/2n``
per collision slot), so the caller detects them with the frame's
last-event map (built anyway for cancellation tracking) and calls
:func:`resample_duplicate_slots`, which rejection-redraws exactly the
offending segments -- whole-segment rejection, so the surviving segment
is uniform over distinct ``k``-tuples, i.e. the exact conditional law.

Mid-frame tag removals (acked singletons, cascade resolutions) do not
break the frame-at-once equivalence: the field is *pre-drawn*, and the
session walk cancels any later transmission of a removed tag, which is
distributionally identical to the scalar engine never drawing it -- the
slots' Bernoulli fields are independent.
"""

from __future__ import annotations

import numpy as np


def draw_slot_counts(rng: np.random.Generator, n_active: int,
                     frame_size: int, p: float) -> np.ndarray:
    """Draw one frame's per-slot transmitter counts in one RNG call.

    Returns the ``int64`` count of every slot.  The ``p >= 1`` frame is
    deterministic (every active tag transmits in every slot) and consumes
    nothing.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"report probability {p} outside [0, 1]")
    if n_active == 0 or p == 0.0:
        return np.zeros(frame_size, np.int64)
    if p >= 1.0:
        return np.full(frame_size, n_active, np.int64)
    return rng.binomial(n_active, p, size=frame_size)


class RankSource:
    """Amortized uniform rank draws for the frame replay loop.

    ``Generator.integers`` pays a ~7 microsecond fixed dispatch cost per
    call -- as much as an entire frame's worth of rank values -- so
    drawing ranks frame by frame dominates the kernel's RNG budget.  The
    raw uniforms, unlike the binomial slot counts, do not depend on the
    per-frame report probability or roster size: one big ``random()``
    block can be drawn ahead and scaled to ``[0, n_active)`` ranks at
    consumption time, amortizing the dispatch cost over ~100 frames.

    Scaling by ``floor(u * n)`` deviates from ``integers``' exact Lemire
    rejection by at most one part in ``2**53 / n`` per rank -- orders of
    magnitude below anything a statistical equivalence test (or the
    physics) could resolve, and within kernel-v2's contract that the
    consumption pattern and draw mechanics belong to the engine while
    the process law is preserved.  Leftover uniforms at a refill are
    discarded draws, free under the same contract.  The same block
    supplies the FCAT walk's channel outcomes, one uniform each
    (:meth:`uniform`).
    """

    __slots__ = ("rng", "_buf", "_pos", "_len")

    _BLOCK = 4096

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self._buf = None
        self._pos = 0
        self._len = 0

    def refill(self, need: int) -> np.ndarray:
        """Replace the block with at least ``need`` fresh uniforms.

        The one refill rule: a block runs dry when fewer than ``need``
        uniforms are left, and its leftovers are discarded.
        """
        self._buf = self.rng.random(max(self._BLOCK, need))
        self._len = len(self._buf)
        self._pos = 0
        return self._buf

    def draw(self, n_active: int, total: int) -> list[int]:
        """``total`` i.i.d. uniform ranks over ``[0, n_active)``."""
        pos = self._pos
        end = pos + total
        if end > self._len:
            self.refill(total)
            pos = 0
            end = total
        self._pos = end
        return np.multiply(self._buf[pos:end],
                           n_active).astype(np.intp).tolist()

    def uniform(self) -> float:
        """One uniform on ``[0, 1)`` from the block: a channel outcome."""
        pos = self._pos
        if pos == self._len:
            self.refill(1)
            pos = 0
        self._pos = pos + 1
        return self._buf[pos]


def resample_duplicate_slots(rng: np.random.Generator, n_active: int,
                             counts: list[int], ranks: list[int]) -> bool:
    """Redraw duplicated ranks within any slot segment, in place.

    Sparse segments redraw only the *later duplicate occurrences*
    (repeatedly, until the segment is distinct).  The output law is still
    exactly uniform over ordered distinct ``k``-tuples: the procedure
    depends on the draw only through its equality pattern, so it is
    equivariant under relabelling of tag ranks, and any rank-equivariant
    procedure that terminates on distinct tuples samples the uniform
    conditional law -- the same one the scalar engine realises per slot.
    Dense segments (``2k >= n_active``, the saturated endgame) would need
    many redraw rounds, so they are replaced wholesale by a partial
    Fisher-Yates shuffle -- directly the same uniform distinct-tuple law.
    Returns True when anything changed (the caller's rank index is then
    stale).
    """
    changed = False
    offset = 0
    # Cold in expectation: segments are scanned in Python but duplicates
    # occur ~k(k-1)/2n per collision slot, so the repair almost never runs.
    for k in counts:
        if k >= 2:
            end = offset + k
            seen = set(ranks[offset:end])
            if len(seen) < k:
                changed = True
                if k * 2 >= n_active:
                    # Dense segment (saturated endgame: k a large
                    # fraction of n_active): rejection degenerates, so
                    # replace the whole segment with a partial
                    # Fisher-Yates draw -- also exactly uniform over
                    # ordered distinct k-tuples, one RNG call.
                    swaps = rng.integers(np.arange(k), n_active).tolist()
                    pool = list(range(n_active))
                    for j, swap in enumerate(swaps):
                        pool[j], pool[swap] = pool[swap], pool[j]
                        ranks[offset + j] = pool[j]
                    offset += k
                    continue
                seen.clear()
                retry = []
                for position in range(offset, end):
                    rank = ranks[position]
                    if rank in seen:
                        retry.append(position)
                    else:
                        seen.add(rank)
                while retry:
                    draws = rng.integers(0, n_active,
                                         size=len(retry)).tolist()
                    still = []
                    for position, rank in zip(retry, draws):
                        if rank in seen:
                            still.append(position)
                        else:
                            seen.add(rank)
                            ranks[position] = rank
                    retry = still
        offset += k
    return changed
