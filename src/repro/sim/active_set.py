"""A set with O(1) insert, remove and uniform random sampling.

FCAT needs, every slot, a uniform sample of ``k`` distinct tags out of the
currently active ones (where ``k ~ Binomial(N_active, p)`` is tiny, around
``omega = 1.4``).  A plain set cannot sample; a list cannot remove in O(1).
``ActiveSet`` keeps items in a dense list plus an item->position map and uses
swap-with-last removal, the classic constant-time trick, so a 17 000-slot FCAT
session at N = 10 000 runs in well under a second.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator

import numpy as np


class ActiveSet:
    """Dense set of hashable items supporting O(1) uniform sampling."""

    def __init__(self, items: Iterable[Hashable] = ()) -> None:
        self._items: list[Hashable] = []
        self._pos: dict[Hashable, int] = {}
        #: Scratch for the rejection sampler, reused across calls: the
        #: scalar session loops call ``sample_binomial`` once per slot,
        #: and allocating a fresh position set per slot is a per-call
        #: allocation in a hot loop (the kernel engine sidesteps this whole
        #: class by pre-drawing frames; see ``repro.kernels.frame``).
        self._scratch: set[int] = set()
        for item in items:
            self.add(item)

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._pos

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._items)

    def add(self, item: Hashable) -> None:
        """Insert ``item``; no-op if already present."""
        if item in self._pos:
            return
        self._pos[item] = len(self._items)
        self._items.append(item)

    def remove(self, item: Hashable) -> None:
        """Remove ``item`` in O(1); raises ``KeyError`` if absent."""
        position = self._pos.pop(item)  # KeyError if absent, as intended
        last = self._items.pop()
        if position < len(self._items):  # removed item was not the last one
            self._items[position] = last
            self._pos[last] = position

    def discard(self, item: Hashable) -> bool:
        """Remove ``item`` if present; return whether it was removed."""
        if item not in self._pos:
            return False
        self.remove(item)
        return True

    def sample(self, k: int, rng: np.random.Generator) -> list[Hashable]:
        """Return ``k`` distinct items uniformly at random (without replacement).

        Uses rejection sampling over positions, which is O(k) in expectation
        for ``k`` much smaller than the set and falls back to a permutation
        when ``k`` is a large fraction of the set.

        The returned order is a pure function of the RNG stream and the set's
        insertion history: rejection-sampled positions are sorted before
        indexing (a ``set`` of positions would otherwise leak hash-iteration
        order into slot outcomes, breaking the parallel==serial guarantee the
        sweep executor relies on).
        """
        n = len(self._items)
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} items from a set of {n}")
        if k == 0:
            return []
        if k == n:
            return list(self._items)
        if k > n // 2:
            positions = rng.permutation(n)[:k]
            return [self._items[int(p)] for p in positions]
        # Rejection sampling into the reused scratch set: exactly one
        # scalar `integers` draw per accepted-or-rejected attempt, the
        # draw order the golden results pin.
        chosen = self._scratch
        chosen.clear()
        while len(chosen) < k:
            chosen.add(int(rng.integers(0, n)))
        return [self._items[p] for p in sorted(chosen)]

    def sample_binomial(self, probability: float,
                        rng: np.random.Generator) -> list[Hashable]:
        """Sample each item independently with ``probability``.

        Statistically identical to evaluating the report hash
        ``H(ID|i) <= floor(p * 2^l)`` at every tag, but O(k) instead of O(N):
        draw the transmitter count from the binomial, then pick that many
        distinct members.

        This is the scalar engines' per-slot sampler; the kernel engine
        replaces it wholesale with frame-at-once draws
        (:func:`repro.kernels.frame.draw_slot_counts`).
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        k = int(rng.binomial(len(self._items), probability)) if self._items else 0
        return self.sample(k, rng)
