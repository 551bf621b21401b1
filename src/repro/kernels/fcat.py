"""Frame-at-once FCAT kernel.

One :class:`_FcatKernelSession` replays the exact FCAT Markov process of
:class:`repro.core.fcat._FcatSession`, but instead of flipping one
``Binomial(n, p)`` coin per slot it pre-draws the whole frame's
transmission field in two RNG calls
(:func:`repro.kernels.frame.draw_slot_counts`: per-slot binomial counts;
:class:`repro.kernels.frame.RankSource`: one uniform tag rank per
transmission, sliced from an amortized pre-drawn uniform block) and
then walks the tiny count vector, doing O(1) work per
silent slot and O(k) per eventful one.  Frames that provably cannot
learn a tag (no singleton slot on a draw-free channel) skip the rank
draw for their unresolvable ``k > lam`` slots entirely -- their
transmitter identities are unobservable, so under kernel-v2 semantics
the generator is simply not consumed for them.
Per-frame cost drops from ``O(frame_size)`` RNG calls with per-slot
array allocation to two bulk draws plus ``O(transmissions)`` bookkeeping.

The replay is exact: slots are processed in order and a removed tag
(acked singleton, cascade resolution) has its pre-drawn transmissions in
later slots cancelled -- distributionally identical to the scalar engine
never drawing them, every Bernoulli cell being independent.  One walk,
:meth:`_FcatKernelSession._walk_frame` and its :meth:`_replay`, serves
every channel.  ``fcat_walk.c`` ports it line for line and runs instead
wherever :func:`repro.kernels.native.library` can build it
(:class:`_NativeFcatSession`); the two consume the generator identically,
so which walk ran never shows in a result, and the Python walk stays the
reference the tests hold the C walk to.  The paper's
section IV-E imperfections and the capture extension are channel
*outcomes* taken as data: each is one uniform from the same amortized
block that supplies the ranks -- one per singleton (CRC), per stored
record (usable), per learned tag (ack) and per collision (capture, plus
one for the captured index).  A zero probability takes no uniform, so a
draw-free channel consumes the generator exactly as a perfect-channel
session always has.  The termination probe is the same walk over a
one-slot ``p = 1`` frame.

Under an active observation each frame appends one tuple to a row list
the batch's sessions share, in lockstep order, and each termination probe
a ``(slot_index, outcome)`` row.  :func:`batched_fcat_sessions` hands the
rows to the event stream once, as a frame block
(:meth:`repro.obs.events.EventStream.record_frames`) that stands for the
``frame``, ``estimator_update`` and ``termination_probe`` events and
builds them only when read, then folds the ``estimator.rel_error``
histogram and the ``kernel.anc_resolved`` counter.  The scalar engine's
per-slot ``anc_resolution`` events have no kernel counterpart.

Seed semantics are **kernel-v2** (``docs/performance.md``): each session
owns an independent per-run generator minted from the same spawned child
seed the scalar path uses, but consumes it in frame-at-once order, so
kernel results differ bit-wise from scalar results while following the
identical process law.  Equivalence is pinned by the paired statistical
tests in ``tests/kernels/``.

Known coarsening vs the scalar engine: the ``max_slots`` runaway guard is
checked at frame granularity (a stuck session raises at the first frame
*starting* past the limit, up to ``frame_size - 1`` slots later than the
scalar per-slot check).  Per-slot ``SessionTrace`` logging and the
``bootstrap_abort_after`` frame cut-off are not offered -- those
configurations route to the scalar engine.
"""

from __future__ import annotations

import ctypes
from collections.abc import Container, Sequence

import numpy as np

from repro.air.timing import ICODE_TIMING, TimingModel
from repro.core.estimator import EmbeddedEstimator
from repro.core.fcat import Fcat
from repro.kernels import native
from repro.kernels.frame import (RankSource, draw_slot_counts,
                                 resample_duplicate_slots)
from repro.kernels.records import KernelRecordStore
from repro.obs import scope
from repro.sim.channel import PERFECT_CHANNEL, ChannelModel
from repro.sim.result import ReadingResult


def _draw_free(channel: ChannelModel) -> bool:
    """True when the channel never consumes the generator (all probs 0)."""
    return channel == PERFECT_CHANNEL


class _FcatKernelSession:
    """One FCAT session advanced frame by frame over dense tag indices."""

    def __init__(self, name: str, protocol: Fcat, n_tags: int,
                 rng: np.random.Generator,
                 channel: ChannelModel = PERFECT_CHANNEL,
                 timing: TimingModel = ICODE_TIMING,
                 rows: list[tuple] | None = None) -> None:
        config = protocol.config
        if config.zigzag:
            raise ValueError("the FCAT kernel does not implement ZigZag; "
                             "use the scalar engine")
        if config.bootstrap_abort_after is not None:
            raise ValueError("the FCAT kernel does not implement the "
                             "bootstrap abort; use the scalar engine")
        self.rng = rng
        self.ranks = RankSource(rng)
        self.omega = config.effective_omega
        self.estimator = EmbeddedEstimator(
            omega=self.omega, frame_size=config.frame_size,
            initial_guess=config.initial_estimate,
            method=config.estimator_method,
            mode=config.estimator_mode,
            source=config.estimator_source,
            ewma_weight=config.estimator_ewma_weight)
        self.result = ReadingResult(protocol=name, n_tags=n_tags,
                                    n_read=0, timing=timing)
        self.slot_index = 0
        self.max_slots = int(config.max_slots_factor * max(n_tags, 1) + 1000)
        # Hot-loop invariants, hoisted once: `_run_frame` runs hundreds of
        # times per session and each dotted config read costs two lookups.
        self.frame_size = config.frame_size
        self.max_p = config.max_report_probability
        #: The batch's shared telemetry rows; ``None`` when unobserved.
        self.rows = rows
        # The channel as data: the walk draws an outcome uniform only
        # where its probability is non-zero.
        self.outcome_probs = (channel.singleton_corrupt_prob,
                              channel.ack_loss_prob,
                              channel.collision_unusable_prob,
                              channel.capture_prob)
        # `draw_free` licenses the uninformative-frame fast path: no
        # channel draw can ever flip a slot's class.
        self.draw_free = _draw_free(channel)
        #: Roster size and tags learned so far, kept current by the walk.
        self.n_active = n_tags
        self.n_learned = 0
        self._init_walk(n_tags, config.lam)

    def _init_walk(self, n_tags: int, lam: int) -> None:
        """The walk's state: roster and record store."""
        # Dense roster: `items` holds the active tag indices, `pos[tag]`
        # its position in `items` while active.  Swap-remove keeps
        # both O(1); removals are deferred to frame end so the frame's
        # rank -> tag map stays stable during the replay.
        self.items = list(range(n_tags))
        self.pos = list(range(n_tags))
        self.store = KernelRecordStore(lam, n_tags)

    def close(self) -> None:
        """Release the walk's state (nothing to release in Python)."""

    def step(self) -> bool:
        """Advance one frame (plus termination probe); True when done."""
        if self._run_frame() == self.frame_size:
            return self._termination_probe()
        return False

    # -- frame mechanics ---------------------------------------------------

    def _advertise(self, n_slots: int) -> None:
        """Open ``n_slots`` slots behind one reader advertisement."""
        self.result.advertisements += 1
        if self.slot_index >= self.max_slots:
            raise RuntimeError(
                f"FCAT session exceeded {self.max_slots} slots -- "
                "estimator or termination logic is stuck")
        self.slot_index += n_slots

    def _run_frame(self) -> int:
        """Draw and walk one frame; returns its empty-slot count."""
        result = self.result
        estimator = self.estimator
        frame_size = self.frame_size
        identified_at_start = self.n_learned
        remaining = estimator._remaining  # inlined estimator.remaining()
        if remaining < 1.0:
            remaining = 1.0
        p = self.omega / remaining
        if p > self.max_p:
            p = self.max_p
        result.frames += 1
        self._advertise(frame_size)  # pre-frame advertisement
        counts = draw_slot_counts(self.rng, self.n_active, frame_size, p)
        n_empty, n_collision = self._walk_frame(counts, p >= 1.0)
        estimator.update(n_collision, p, identified_at_start,
                         self.n_learned, n_empty=n_empty)
        remaining = estimator._remaining
        result.estimate_trace.append(remaining if remaining > 1.0 else 1.0)
        if self.rows is not None:
            # One tuple per frame; events are built only when read.
            self.rows.append((result.frames - 1, p, n_empty,
                              frame_size - n_empty - n_collision,
                              n_collision, estimator.remaining(),
                              self.n_active))
        return n_empty

    def _walk_frame(self, counts: np.ndarray,
                    saturated: bool) -> tuple[int, int]:
        """Walk one frame of slot counts; returns ``(empty, collision)``.

        ``saturated`` is a ``p >= 1`` frame: every active tag transmits
        in every slot.  This is the reference walk; ``fcat_walk.c`` ports
        it, consuming the generator identically.
        """
        result = self.result
        store = self.store
        frame_size = self.frame_size
        lam = store.lam
        n_active = len(self.items)
        counts = counts.tolist()
        total = sum(counts)
        if total == 0 or (self.draw_free and 1 not in counts):
            # A silent frame, or no singleton slot on a draw-free channel:
            # nothing can be learned this frame, so no cancellation can
            # arise and every k > lam slot is an unresolvable collision
            # whose transmitter identities are unobservable -- their draw
            # is skipped outright (kernel-v2 consumption).  Covers the
            # bootstrap ramp, the estimate-transition frames and the
            # saturated endgame, where totals are largest.
            record_total = sum(k for k in counts if k <= lam)
            n_empty = counts.count(0)
            n_collision = frame_size - n_empty
            if record_total:
                # Only the 2 <= k <= lam slots are observable (they store
                # records): draw and repair just those segments.  Their
                # conditional law -- independent uniform distinct
                # k-tuples per slot -- is the scalar one; a tag appearing
                # in two different slots is legitimate and kept.  No tag
                # is learned, so each record starts fully unknown (its
                # counter is k) and every participant registers.
                ranks = self.ranks.draw(n_active, record_total)
                record_counts = [k for k in counts if 2 <= k <= lam]
                resample_duplicate_slots(self.rng, n_active,
                                         record_counts, ranks)
                by_tag = store._by_tag
                items = self.items
                offset = 0
                for k in record_counts:
                    rec = [k] + [items[r] for r in ranks[offset:offset + k]]
                    offset += k
                    for tag in rec[1:]:
                        entries = by_tag[tag]
                        if entries is None:
                            by_tag[tag] = [rec]
                        else:
                            entries.append(rec)
            result.tag_transmissions += total
            result.empty_slots += n_empty
            result.collision_slots += n_collision
            return n_empty, n_collision
        if saturated:
            # Deterministic saturated frame: every active tag, every slot.
            ranks = list(range(n_active)) * frame_size
        else:
            ranks = self.ranks.draw(n_active, total)
        # Fewer distinct ranks than transmissions means some rank repeats,
        # possibly inside a single slot, which the scalar slot law forbids
        # -- repair exactly those segments.  Frame-wide repeats across
        # slots are legitimate, but only then can a tag read mid-frame
        # transmit again later, so the last-event map is needed at all
        # only in the has_dups case.
        frame_ranks = set(ranks)
        has_dups = len(frame_ranks) < total
        if has_dups:
            if resample_duplicate_slots(self.rng, n_active, counts, ranks):
                frame_ranks = set(ranks)
                has_dups = len(frame_ranks) < total
        last_pos = dict(zip(ranks, range(total))) if has_dups else None
        removed: list[int] = []
        n_empty, n_collision = self._replay(counts, ranks, frame_ranks,
                                            last_pos, removed)
        if removed:
            self._apply_removals(removed)
        return n_empty, n_collision

    def _replay(self, counts: list[int], ranks: Sequence[int],
                frame_ranks: Container[int], last_pos: dict[int, int] | None,
                removed: list[int]) -> tuple[int, int]:
        """Walk one pre-drawn frame in slot order, on any channel.

        Returns the frame's ``(empty, collision)`` slot counts and appends
        every acked tag to ``removed`` in ack order (the caller
        swap-removes them at frame end, so that order fixes the roster
        permutation every later frame's rank -> tag map depends on).

        ``last_pos`` (rank -> last event position) is built only for
        frames where some rank transmits twice: there an acked tag has
        its later pre-drawn transmissions cancelled, which can downgrade
        later slots (collision -> singleton -> empty) or shrink a
        ``k > lam`` slot into a usable record.  In the common
        no-duplicate frame (``last_pos is None``) a read tag can never
        transmit again later, so only cascade-*resolved* tags -- whose
        one pre-drawn event may still lie ahead -- need cancelling, and
        membership in ``frame_ranks`` (the dup-detection set built
        anyway) suffices: if the one occurrence was already behind, the
        cancel entry simply never matches, and the false positive is
        harmless precisely because no rank repeats.

        Channel outcomes come from :meth:`RankSource.uniform`, each only
        where its probability is non-zero.  A lost ack leaves its tag
        active: it is neither removed nor cancelled, so it may transmit
        again, be re-read (the reader discards the duplicate ID) or join
        a record, which drops learned participants and resolves on the
        spot when one unknown participant remains.  Only a lost ack lets
        a learned tag transmit, so the record path filters learned
        participants only when ``ack_p`` is non-zero.
        """
        store = self.store
        lam = store.lam
        by_tag = store._by_tag
        learned = store._learned
        items = self.items
        pos = self.pos
        append_removed = removed.append
        crc_p, ack_p, unusable_p, capture_p = self.outcome_probs
        uniform = self.ranks.uniform
        cancel: set[int] | None = None
        n_singleton = n_collision = n_reread = n_resolved = 0
        # Transmissions beyond the one every singleton-class slot carries.
        transmissions = 0
        offset = 0
        # O(1)-per-silent-slot walk over the pre-drawn frame; the bulk
        # randomness was drawn above in two vectorized calls.
        for k in counts:
            if k == 0:
                continue
            start = offset
            offset = end = start + k
            if k == 1:
                rank = ranks[start]
                if cancel is not None and rank in cancel:
                    continue
            elif cancel is None:
                seg = None
            else:
                seg = [r for r in ranks[start:end] if r not in cancel]
                k = len(seg)
                if k == 0:
                    continue
                if k == 1:
                    rank = seg[0]
            if k == 1:
                if crc_p and uniform() < crc_p:
                    # CRC failure: the reader keeps an opaque record it
                    # can never verify; the slot counts as a collision.
                    transmissions += 1
                    n_collision += 1
                    continue
                parts = None
            elif capture_p and uniform() < capture_p:
                # Capture: the strongest collider decodes, so the slot
                # reads as a singleton; subtracting its signal leaves a
                # (k-1)-record (one constituent: it decodes outright).
                segment = list(ranks[start:end] if seg is None else seg)
                rank = segment.pop(int(uniform() * k))
                transmissions += k - 1
                parts = None
                if k - 1 <= lam and (not unusable_p
                                     or uniform() >= unusable_p):
                    parts = [items[r] for r in segment]
            else:
                transmissions += k
                n_collision += 1
                if k > lam or (unusable_p and uniform() < unusable_p):
                    continue
                if ack_p:
                    parts = [items[r] for r in
                             (ranks[start:end] if seg is None else seg)]
                    rank = -1  # no read: the record path below
                else:
                    # Inlined `store.add_record`, minus the learned scan:
                    # with every ack received a transmitting tag is never
                    # already learned, so the record starts fully unknown
                    # -- its counter is simply k.  The common small sizes
                    # are unrolled (no slice, no listcomp); every
                    # participant registers, mirroring records.py.
                    if seg is None:
                        if k == 2:
                            rec = [2, items[ranks[start]],
                                   items[ranks[start + 1]]]
                        elif k == 3:
                            rec = [3, items[ranks[start]],
                                   items[ranks[start + 1]],
                                   items[ranks[start + 2]]]
                        elif k == 4:
                            rec = [4, items[ranks[start]],
                                   items[ranks[start + 1]],
                                   items[ranks[start + 2]],
                                   items[ranks[start + 3]]]
                        else:
                            rec = [k] + [items[r] for r in ranks[start:end]]
                    else:
                        rec = [k] + [items[r] for r in seg]
                    t0 = rec[1]
                    entries = by_tag[t0]
                    if entries is None:
                        by_tag[t0] = [rec]
                    else:
                        entries.append(rec)
                    t1 = rec[2]
                    entries = by_tag[t1]
                    if entries is None:
                        by_tag[t1] = [rec]
                    else:
                        entries.append(rec)
                    if k > 2:
                        t2 = rec[3]
                        entries = by_tag[t2]
                        if entries is None:
                            by_tag[t2] = [rec]
                        else:
                            entries.append(rec)
                        if k > 3:
                            t3 = rec[4]
                            entries = by_tag[t3]
                            if entries is None:
                                by_tag[t3] = [rec]
                            else:
                                entries.append(rec)
                            if k > 4:
                                for tag in rec[5:]:
                                    entries = by_tag[tag]
                                    if entries is None:
                                        by_tag[tag] = [rec]
                                    else:
                                        entries.append(rec)
                    continue
            if rank < 0:
                entries = None
            else:
                # Read (a singleton or the captured collider): ack, learn,
                # then run the resolution cascade below.
                tag = items[rank]
                n_singleton += 1
                if not ack_p or uniform() >= ack_p:
                    append_removed(tag)
                    if last_pos is not None and last_pos[rank] >= end:
                        if cancel is None:
                            cancel = set()
                        cancel.add(rank)
                if ack_p and learned[tag]:
                    n_reread += 1
                learned[tag] = 1
                entries = by_tag[tag]
                by_tag[tag] = None
            if parts is not None:
                # `store.add_record` for a record that may hold learned
                # participants: they drop out, and a lone unknown resolves
                # at creation -- visited first, as a record whose count
                # is about to reach one.
                unknown = [tag for tag in parts if not learned[tag]]
                if len(unknown) > 1:
                    rec = [len(unknown)] + unknown
                    for tag in unknown:
                        pending = by_tag[tag]
                        if pending is None:
                            by_tag[tag] = [rec]
                        else:
                            pending.append(rec)
                elif unknown:
                    seed = [2, unknown[0]]
                    entries = [seed] if entries is None else [seed] + entries
            if entries is None:
                continue
            # `KernelRecordStore.learn`'s cascade, inlined so resolutions
            # feed the removal list and the cancel set without any
            # intermediate bookkeeping (see records.py for the
            # unknown-counter visit logic this mirrors).  A worklist
            # fixpoint over ragged pending lists: inherently serial,
            # O(total record visits).
            stack = None
            while True:
                for rec in entries:
                    c = rec[0]
                    if c < 2:
                        continue  # spent (stored counts never hit 1)
                    rec[0] = c - 1
                    if c > 2:
                        continue  # still > 1 unknown participant
                    # The count just hit one: resolve the survivor -- the
                    # lone unlearned stored participant (none on a
                    # duplicate residual).  Unrolled over the first four
                    # stored participants, looped over the rest (λ >= 5);
                    # the k == 2 case (the bulk) exits after two flag
                    # reads.
                    other = rec[1]
                    if learned[other]:
                        other = rec[2]
                        if learned[other]:
                            other = rec[3] if len(rec) > 3 else -1
                            if other >= 0 and learned[other]:
                                other = rec[4] if len(rec) > 4 else -1
                                if other >= 0 and learned[other]:
                                    other = -1
                                    for tag in rec[5:]:
                                        if not learned[tag]:
                                            other = tag
                                            break
                    rec[0] = 0
                    if other < 0:
                        continue  # duplicate residual
                    learned[other] = 1
                    n_resolved += 1
                    if not ack_p or uniform() >= ack_p:
                        append_removed(other)
                        resolved_rank = pos[other]
                        if (resolved_rank in frame_ranks if last_pos is None
                                else last_pos.get(resolved_rank, -1) >= end):
                            if cancel is None:
                                cancel = set()
                            cancel.add(resolved_rank)
                    pending = by_tag[other]
                    if pending is not None:
                        by_tag[other] = None
                        if stack is None:
                            stack = []
                        stack.append(pending)
                if not stack:
                    break
                entries = stack.pop()
        # Fold the flat counters: every eventful slot lands in exactly one
        # of the singleton / collision / cancelled-to-empty buckets, so
        # the empty count is the slot count minus the first two.
        n_read = n_singleton - n_reread
        store._learned_count += n_read + n_resolved
        self.n_learned = store._learned_count
        n_empty = len(counts) - n_singleton - n_collision
        result = self.result
        result.tag_transmissions += transmissions + n_singleton
        result.empty_slots += n_empty
        result.singleton_slots += n_singleton
        result.collision_slots += n_collision
        result.n_read += n_read + n_resolved
        result.resolved_from_collision += n_resolved
        result.index_announcements += n_resolved
        return n_empty, n_collision

    def _apply_removals(self, removed: list[int]) -> None:
        items = self.items
        pos = self.pos
        # Swap-remove bookkeeping over a Python roster: O(1) per removal,
        # nothing array-shaped to batch.
        for tag in removed:
            position = pos[tag]
            last = items[-1]
            items[position] = last
            pos[last] = position
            items.pop()
        self.n_active = len(items)

    # -- termination -------------------------------------------------------

    def _termination_probe(self) -> bool:
        """One ``p = 1`` slot after an all-empty frame (section IV-A).

        The frame walk over a one-slot frame that every active tag
        transmits in.
        """
        slot = self.slot_index
        self._advertise(1)  # advertise p = 1
        n_empty, n_collision = self._walk_probe()
        if self.rows is not None:
            self.rows.append((slot, "empty" if n_empty else
                              "collision" if n_collision else "singleton"))
        if n_collision:
            self.estimator.force_at_least(2.0)
        return bool(n_empty)

    def _walk_probe(self) -> tuple[int, int]:
        """The probe's one slot; returns ``(empty, collision)``."""
        ranks = range(len(self.items))
        removed: list[int] = []
        n_empty, n_collision = self._replay([len(ranks)], ranks, ranks,
                                            None, removed)
        if removed:
            self._apply_removals(removed)
        return n_empty, n_collision


_INT64 = np.dtype(np.int64)

#: Indices into the native walk's counters (the enum in ``fcat_walk.c``).
(_EMPTY, _COLLISION, _ACTIVE, _LEARNED, _TRANSMISSIONS, _EMPTY_SLOTS,
 _SINGLETON_SLOTS, _COLLISION_SLOTS, _READ, _RESOLVED) = range(10)


class _NativeFcatSession(_FcatKernelSession):
    """The same session with its frames walked by ``fcat_walk.c``.

    Only the walk moves: the slot counts, ``p``, the runaway guard, the
    estimator and the telemetry rows stay in :class:`_FcatKernelSession`.
    The C walk holds the roster and the record store, so neither is also
    built in Python.  It reads the uniform block that :class:`RankSource`
    refills, and calls back into Python for refills and for
    :func:`resample_duplicate_slots`.  A callback that raises records
    its exception; the walk aborts the frame and :meth:`_walked`
    re-raises it.  :meth:`close` folds the walk's counters into the
    result and frees the C state.
    """

    def _init_walk(self, n_tags: int, lam: int) -> None:
        self._lib = native.library()
        self._error: BaseException | None = None
        # The callbacks must outlive the C session that calls them.
        self._callbacks = (native.REFILL(self._refill),
                           native.REPAIR(self._repair))
        self._session = self._lib.fcat_new(
            n_tags, lam, *self.outcome_probs, self.draw_free,
            *self._callbacks)
        if not self._session:
            raise MemoryError("the native FCAT walk could not allocate "
                              f"{n_tags} tags")
        self._stats = self._lib.fcat_stats(self._session)
        self._counts_type = ctypes.c_int64 * self.frame_size

    def close(self) -> None:
        if not self._session:
            return
        stats, result = self._stats, self.result
        result.tag_transmissions += stats[_TRANSMISSIONS]
        result.empty_slots += stats[_EMPTY_SLOTS]
        result.singleton_slots += stats[_SINGLETON_SLOTS]
        result.collision_slots += stats[_COLLISION_SLOTS]
        result.n_read += stats[_READ]
        result.resolved_from_collision += stats[_RESOLVED]
        result.index_announcements += stats[_RESOLVED]
        self._lib.fcat_free(self._session)
        self._session = self._stats = self._callbacks = None

    def _walk_frame(self, counts: np.ndarray,
                    saturated: bool) -> tuple[int, int]:
        # `from_buffer` checks size and contiguity; the dtype is ours.
        if counts.dtype is not _INT64:
            raise TypeError(f"slot counts must be int64, not {counts.dtype}")
        return self._walked(self._lib.fcat_frame(
            self._session, self._counts_type.from_buffer(counts),
            self.frame_size, saturated))

    def _walk_probe(self) -> tuple[int, int]:
        return self._walked(self._lib.fcat_probe(self._session))

    def _walked(self, status: int) -> tuple[int, int]:
        """The walk's ``(empty, collision)``, or what made it abort."""
        if status:
            error, self._error = self._error, None
            if error is not None:
                raise error
            raise MemoryError("the native FCAT walk ran out of memory")
        stats = self._stats
        self.n_active = stats[_ACTIVE]
        self.n_learned = stats[_LEARNED]
        return stats[_EMPTY], stats[_COLLISION]

    # -- callbacks from the C walk -------------------------------------------

    def _refill(self, need: int, length) -> int | None:
        try:
            block = self.ranks.refill(need)
            length[0] = len(block)
            return block.ctypes.data
        except BaseException as error:  # ctypes would print and drop it
            self._error = error
            return None

    def _repair(self, counts, n_counts: int, ranks, total: int) -> int:
        try:
            drawn = ranks[:total]
            if not resample_duplicate_slots(self.rng, self.n_active,
                                            counts[:n_counts], drawn):
                return 0
            np.ctypeslib.as_array(ranks, (total,))[:] = drawn
            return 1
        except BaseException as error:  # ctypes would print and drop it
            self._error = error
            return -1


# repro: kernel scalar=repro.core.fcat:_FcatSession.run test=tests/kernels/test_fcat_kernel.py
def batched_fcat_sessions(protocol: Fcat, n_tags: int,
                          rngs: list[np.random.Generator],
                          channel: ChannelModel = PERFECT_CHANNEL,
                          timing: TimingModel = ICODE_TIMING,
                          ) -> list[ReadingResult]:
    """Run ``len(rngs)`` independent FCAT sessions in frame lockstep.

    Each session owns its generator, so results are independent of batch
    composition and chunking -- the basis of the kernel-v2 bit-identity
    guarantee (``docs/performance.md``).  Sessions drop out of the batch
    as they terminate.

    Under an active observation the sessions share one telemetry row
    list, handed to the event stream once when the batch ends -- also when
    the runaway guard raises, so the frames run before it stay readable.
    """
    obs = scope.active()
    rows: list[tuple] | None = None if obs is None else []
    python_walk = native.library() is None
    sessions: list[_FcatKernelSession] = []
    try:
        for rng in rngs:
            args = (protocol.name, protocol, n_tags, rng, channel, timing,
                    rows)
            sessions.append(_FcatKernelSession(*args) if python_walk
                            else _NativeFcatSession(*args))
        # Lockstep frame loop: each round advances every live session by
        # one frame.
        alive = sessions
        while alive:
            alive = [session for session in alive if not session.step()]
    finally:
        for session in sessions:
            session.close()
        if obs is not None:
            _record_telemetry(obs, protocol.name, rows, sessions)
    return [session.result for session in sessions]


def _record_telemetry(obs: scope.Observation, name: str, rows: list[tuple],
                      sessions: list[_FcatKernelSession]) -> None:
    """Fold one batch's telemetry into ``obs``, in row order."""
    if not rows:
        return  # no frame ran: nothing to record, no instrument to create
    obs.events.record_frames(name, rows)
    histogram = obs.metrics.histogram("estimator.rel_error")
    for row in rows:
        if len(row) > 2:  # a frame row, not a termination probe
            estimate, actual = row[5], row[6]
            histogram.observe(abs(estimate - actual) / max(actual, 1))
    resolved = sum(session.result.resolved_from_collision
                   for session in sessions)
    if resolved:
        obs.count("kernel.anc_resolved", resolved)
