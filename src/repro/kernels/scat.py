"""Block-at-once SCAT kernel.

SCAT (:class:`repro.core.scat.Scat`) is slot-serial by protocol design:
every slot carries its own advertisement ``<i, p_i>`` and ``p_i`` is
recomputed from the reader's current belief.  But on a draw-free channel
the belief only *changes* at well-defined events -- a singleton slot
(learn + ack + cascade), an empty streak reaching the probe threshold,
or a collision streak doubling the correction term -- so between events
the slots are i.i.d. ``Binomial(n_active, p)`` and can be pre-drawn as a
block:

1. one vectorized binomial call draws a block of slot counts;
2. a pure scan (no RNG, no mutation) finds the prefix up to and
   including the first belief-changing slot and totals the participant
   ranks that prefix needs -- one rank for the terminating singleton,
   ``k`` for each resolvable ``2 <= k <= lam`` collision, none for
   ``k > lam`` collisions whose transmitter identities are unobservable
   (under kernel-v2 semantics the generator is simply not consumed for
   them, cf. :mod:`repro.kernels.fcat`);
3. one bulk call draws those ranks, duplicates within a collision
   segment are repaired by
   :func:`repro.kernels.frame.resample_duplicate_slots` (exact
   conditional law), and the prefix is replayed with the scalar
   engine's per-slot accounting.

Counts drawn past the stop slot are discarded -- their law depended on
the now-stale ``p`` -- which is free under kernel-v2 seed semantics
(``docs/performance.md``): consumption patterns belong to the engine,
only the process law is contractual.

Two scalar invariants license the lean replay on a draw-free channel:
an identified tag is always acked and leaves the active set, so a
transmitter is never already learned (records never resolve at
creation, ``n_read`` needs no duplicate check), and the correction
term decays on every empty slot, so while it is non-zero each empty
changes ``p`` and the scan stops there too.

The ``p = 1`` probe slot consumes no randomness at all (every active
tag transmits, exactly the scalar's ``list(active)``) and is handled
outside the block path.

Known coarsening vs the scalar engine: the ``max_slots`` runaway guard
is checked at block granularity, up to one block late.  The Kodialam
pre-estimation step (``pre_estimate_cv``) is not implemented; the
engine routes such configs to the scalar path.
"""

from __future__ import annotations

import numpy as np

from repro.air.timing import ICODE_TIMING, TimingModel
from repro.core.scat import Scat
from repro.kernels.fcat import _draw_free
from repro.kernels.frame import resample_duplicate_slots
from repro.kernels.records import KernelRecordStore
from repro.obs import scope
from repro.sim.channel import PERFECT_CHANNEL, ChannelModel
from repro.sim.result import ReadingResult

#: Slots pre-drawn per binomial call.  At the nominal load roughly every
#: third slot is a singleton, so ~3 of these are consumed per block; the
#: rest are discarded draws, far cheaper than per-slot binomial calls.
_BLOCK = 8

#: Scalar mirror constants (``repro.core.scat.Scat.read_all``).
_COLLISION_STREAK_LIMIT = 15
_CORRECTION_DECAY = 0.9


class _ScatKernelSession:
    """One SCAT session advanced block by block over dense tag indices."""

    def __init__(self, name: str, protocol: Scat, n_tags: int,
                 rng: np.random.Generator,
                 channel: ChannelModel = PERFECT_CHANNEL,
                 timing: TimingModel = ICODE_TIMING) -> None:
        config = protocol.config
        if not _draw_free(channel):
            raise ValueError("the SCAT kernel requires a draw-free channel; "
                             "use the scalar engine")
        if config.pre_estimate_cv is not None:
            raise ValueError("the SCAT kernel does not implement the "
                             "Kodialam pre-estimation step; use the scalar "
                             "engine")
        self.config = config
        self.rng = rng
        self.omega = config.effective_omega
        self.items = list(range(n_tags))
        self.pos = list(range(n_tags))
        self.store = KernelRecordStore(config.lam, n_tags)
        self.result = ReadingResult(protocol=name, n_tags=n_tags,
                                    n_read=0, timing=timing)
        self.total = float(n_tags)  # section IV-C oracle belief
        self.slot_index = 0
        self.max_slots = int(config.max_slots_factor * max(n_tags, 1) + 1000)
        self.empty_streak = 0
        self.collision_streak = 0
        self.correction = 0.0
        self.done = False
        self.obs = scope.active()
        self.name = name

    def step(self) -> bool:
        """Advance one probe slot or one pre-drawn block; True when done."""
        if self.slot_index >= self.max_slots:
            raise RuntimeError(
                f"SCAT session exceeded {self.max_slots} slots -- "
                "termination logic is stuck")
        if self.empty_streak >= self.config.empty_streak_for_probe:
            self._probe_slot()
        else:
            self._run_block()
        return self.done

    # -- the p = 1 probe -------------------------------------------------

    def _probe_slot(self) -> None:
        """Section IV-A probe: p = 1, every active tag transmits, no RNG."""
        self.empty_streak = 0
        result = self.result
        result.advertisements += 1
        slot = self.slot_index
        self.slot_index += 1
        k = len(self.items)
        result.tag_transmissions += k
        if k == 0:
            result.empty_slots += 1
            self.collision_streak = 0
            self.correction *= _CORRECTION_DECAY
            self.done = True  # silence at p = 1: every ID is collected
        elif k == 1:
            self._singleton(self.items[0], slot)
        else:
            result.collision_slots += 1
            self.collision_streak += 1  # the >= 15 doubling skips probes
            if k <= self.store.lam:
                self.store.add_record(slot, list(self.items))

    # -- the block path --------------------------------------------------

    def _run_block(self) -> None:
        n_active = len(self.items)
        remaining = max(self.total - self.store.learned_count, 1.0) \
            + self.correction
        p = min(self.omega / remaining, self.config.max_report_probability)
        counts = self.rng.binomial(n_active, p, size=_BLOCK).tolist() \
            if n_active and p > 0.0 else [0] * _BLOCK
        stop, ranks, seg_counts = self._scan_prefix(counts)
        self._replay_prefix(counts, stop, ranks, seg_counts)

    def _scan_prefix(self, counts: list[int]) -> tuple[int, list[int],
                                                       list[int]]:
        """Find the belief-changing prefix and draw its participant ranks.

        Pure scan on shadow counters, then one bulk rank draw with the
        per-slot segment layout (``seg_counts``) duplicate-repaired so
        every collision record gets distinct participants.
        """
        lam = self.store.lam
        empty_streak = self.empty_streak
        collision_streak = self.collision_streak
        probe_at = self.config.empty_streak_for_probe
        correcting = self.correction != 0.0
        need = 0
        seg_counts: list[int] = []
        stop = len(counts) - 1
        # Pure shadow-counter scan over <= _BLOCK small ints; the streak
        # state is serially carried by protocol design.
        for i, k in enumerate(counts):
            if k == 1:
                need += 1
                seg_counts.append(1)
                stop = i  # learning slot: p changes
                break
            if k == 0:
                seg_counts.append(0)
                collision_streak = 0
                empty_streak += 1
                if empty_streak >= probe_at or correcting:
                    stop = i  # next slot probes / correction decayed
                    break
            else:
                drawn = k if k <= lam else 0
                need += drawn
                seg_counts.append(drawn)
                collision_streak += 1
                if collision_streak >= _COLLISION_STREAK_LIMIT:
                    stop = i  # correction doubles: p changes
                    break
        n_active = len(self.items)
        if need:
            ranks = self.rng.integers(0, n_active, size=need).tolist()
            resample_duplicate_slots(self.rng, n_active, seg_counts, ranks)
        else:
            ranks = []
        return stop, ranks, seg_counts

    def _replay_prefix(self, counts: list[int], stop: int, ranks: list[int],
                       seg_counts: list[int]) -> None:
        """Scalar per-slot accounting over the pre-drawn prefix."""
        result = self.result
        store = self.store
        lam = store.lam
        items = self.items
        offset = 0
        # Serial by protocol design (each slot's outcome feeds the next
        # advertisement); the kernel batches the *draws*, not the walk.
        for i in range(stop + 1):
            k = counts[i]
            result.advertisements += 1
            slot = self.slot_index
            self.slot_index += 1
            result.tag_transmissions += k
            if k == 0:
                result.empty_slots += 1
                self.collision_streak = 0
                self.correction *= _CORRECTION_DECAY
                self.empty_streak += 1
                continue
            self.empty_streak = 0
            if k == 1:
                self._singleton(items[ranks[offset]], slot)
                offset += 1
                continue
            result.collision_slots += 1
            self.collision_streak += 1
            if self.collision_streak >= _COLLISION_STREAK_LIMIT:
                # Fifteen straight collisions: the belief must be low
                # (scalar mirror; only reachable once a correction or a
                # freak streak pushes p far off the optimum).
                believed = max(self.total - store.learned_count, 1.0) \
                    + self.correction
                self.correction += max(believed, 10.0)
                self.collision_streak = 0
            if k <= lam:
                seg = ranks[offset:offset + k]
                offset += k
                store.add_record(slot, [items[r] for r in seg])

    # -- shared slot outcomes --------------------------------------------

    def _singleton(self, tag: int, slot: int) -> None:
        """Learn one tag, ack it, and apply the resolution cascade.

        On a draw-free channel a transmitter is never already learned, so
        the scalar's duplicate check is vacuous and every resolved tag is
        still active (never acked before) -- both mirrored here without
        re-checking.
        """
        result = self.result
        result.singleton_slots += 1
        self.collision_streak = 0
        result.n_read += 1
        resolved = self.store.learn(tag)
        self._remove(tag)
        for recovered in resolved:
            result.n_read += 1
            result.resolved_from_collision += 1
            result.id_announcements += 1  # SCAT announces the full 96-bit ID
            self._remove(recovered)
        if self.obs is not None and resolved:
            self.obs.emit("anc_resolution", protocol=self.name,
                          slot_index=slot, resolved=len(resolved))

    def _remove(self, tag: int) -> None:
        position = self.pos[tag]
        items = self.items
        last = items.pop()
        if position < len(items):
            items[position] = last
            self.pos[last] = position
        self.pos[tag] = -1


# repro: kernel scalar=repro.core.scat:Scat.read_all test=tests/kernels/test_scat_kernel.py
def batched_scat_sessions(protocol: Scat, n_tags: int,
                          rngs: list[np.random.Generator],
                          channel: ChannelModel = PERFECT_CHANNEL,
                          timing: TimingModel = ICODE_TIMING
                          ) -> list[ReadingResult]:
    """Advance a batch of independent SCAT sessions in lockstep.

    Same contract as :func:`repro.kernels.fcat.batched_fcat_sessions`:
    one session per generator, results in input order, sessions drop out
    of the sweep as they terminate.
    """
    sessions = [_ScatKernelSession(protocol.name, protocol, n_tags, rng,
                                   channel=channel, timing=timing)
                for rng in rngs]
    alive = list(range(len(sessions)))
    # Lockstep driver: per-session belief updates are protocol-serial;
    # the vectorized work happens inside each session's block draws.
    while alive:
        alive = [i for i in alive if not sessions[i].step()]
    return [session.result for session in sessions]
