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
every channel.  ``fcat_walk.c`` ports the whole session line for line --
``p`` and its cap, the runaway guard, the count draw (numpy's own
binomial on the session's ``bitgen_t``), the walk, the Eq. 12 EWMA
estimator, the termination probe and the telemetry rows -- and runs each
batch in one call that releases the GIL, wherever
:func:`repro.kernels.native.library` can build it
(:class:`_NativeFcatSession`, :func:`_run_native`).  The two consume the
generator identically, so which one ran never shows in a result, and
either runs every :class:`~repro.core.fcat.Fcat`.  The Python walk stays as
the reference the tests hold the C loop to and as the fallback without a
compiler, several times faster than the scalar engine
(``docs/performance.md``, "Three FCATs, measured").  It favours plainness
over speed: the store's own :meth:`KernelRecordStore.register` stores
every record and :meth:`KernelRecordStore.cascade` runs every
resolution cascade.  The paper's section IV-E imperfections and the
capture extension are channel *outcomes* taken as data: each is one
uniform from the same amortized block that supplies the ranks -- one per
singleton (CRC), per stored record (usable), per learned tag (ack) and
per collision (capture, plus one for the captured index).  A zero
probability takes no uniform, so a draw-free channel consumes the
generator exactly as a perfect-channel session always has.  The
termination probe is the same walk over a one-slot ``p = 1`` frame.

Under an active observation each frame and each termination probe adds
one :data:`repro.obs.events.FRAME_ROW` row to the batch's telemetry, in
lockstep order.  The C loop writes the rows to a buffer that is copied
into one numpy array when the batch ends; the Python walk appends row
tuples to a list the batch's sessions share and turns it into the same
array.  :func:`batched_fcat_sessions` hands the array to the event stream
once, as a frame block
(:meth:`repro.obs.events.EventStream.record_frames`) that stands for the
``frame``, ``estimator_update`` and ``termination_probe`` events and
builds them only when read, then folds the ``estimator.rel_error``
histogram from its columns and the ``kernel.anc_resolved`` counter: no
per-row Python runs while recording.  The scalar engine's per-slot
``anc_resolution`` events have no kernel counterpart.

Seed semantics are **kernel-v2** (``docs/performance.md``): each session
owns an independent per-run generator minted from the same spawned child
seed the scalar path uses, but consumes it in frame-at-once order, so
kernel results differ bit-wise from scalar results while following the
identical process law.  Equivalence is pinned by the paired statistical
tests in ``tests/kernels/``.

Known coarsening vs the scalar engine: the ``max_slots`` runaway guard is
checked at frame granularity (a stuck session raises at the first frame
*starting* past the limit, up to ``frame_size - 1`` slots later than the
scalar per-slot check).  Per-slot ``SessionTrace`` logging is not
offered: :meth:`repro.core.fcat.Fcat.read_all` keeps it.
"""

from __future__ import annotations

import ctypes
from collections.abc import Container, Sequence

import numpy as np

from repro.air.timing import ICODE_TIMING, TimingModel
from repro.core.estimator import EWMA_WEIGHT, EmbeddedEstimator
from repro.core.fcat import Fcat
from repro.kernels import native
from repro.kernels.frame import (RankSource, draw_slot_counts,
                                 resample_duplicate_slots)
from repro.kernels.records import KernelRecordStore
from repro.obs import scope
from repro.sim.channel import PERFECT_CHANNEL, ChannelModel
from repro.sim.result import ReadingResult


def _runaway(max_slots: int) -> RuntimeError:
    """The runaway guard's error."""
    return RuntimeError(f"FCAT session exceeded {max_slots} slots -- "
                        "estimator or termination logic is stuck")


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
        self.rng = rng
        self.ranks = RankSource(rng)
        self.omega = config.effective_omega
        self.estimator = EmbeddedEstimator(
            omega=self.omega, frame_size=config.frame_size,
            initial_guess=config.initial_estimate,
            source=config.estimator_source)
        self.result = ReadingResult(protocol=name, n_tags=n_tags,
                                    n_read=0, timing=timing)
        self.slot_index = 0
        self.max_slots = int(config.max_slots_factor * max(n_tags, 1) + 1000)
        # Hot-loop invariants, hoisted once: `_run_frame` runs hundreds of
        # times per session and each dotted config read costs two lookups.
        self.frame_size = config.frame_size
        self.max_p = float(config.max_report_probability)
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
            raise _runaway(self.max_slots)
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
            # One row per frame; events are built only when read.
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
                items = self.items
                offset = 0
                for k in record_counts:
                    store.register([items[r]
                                    for r in ranks[offset:offset + k]])
                    offset += k
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
        register = store.register
        cascade = store.cascade
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
                parts = [items[r] for r in
                         (ranks[start:end] if seg is None else seg)]
                rank = -1  # no read: the record path below
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
                # `store.add_record`: learned participants drop out (only
                # a lost ack lets one transmit), and a lone unknown
                # resolves at creation -- visited first, as a record
                # whose count is about to reach one.
                unknown = ([tag for tag in parts if not learned[tag]]
                           if ack_p else parts)
                if len(unknown) > 1:
                    register(unknown)
                elif unknown:
                    seed = [2, unknown[0]]
                    entries = [seed] if entries is None else [seed] + entries
            if entries is None:
                continue
            # The store's cascade draws nothing and `pos` holds until the
            # frame ends, so each resolved tag's ack, removal and
            # cancellation can follow it in resolution order.
            resolved = cascade(entries)
            n_resolved += len(resolved)
            for other in resolved:
                if not ack_p or uniform() >= ack_p:
                    append_removed(other)
                    resolved_rank = pos[other]
                    if (resolved_rank in frame_ranks if last_pos is None
                            else last_pos.get(resolved_rank, -1) >= end):
                        if cancel is None:
                            cancel = set()
                        cancel.add(resolved_rank)
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
            # A probe row: `actual` -1, the outcome's code in `empty`.
            self.rows.append((slot, 0.0, 0 if n_empty else
                              2 if n_collision else 1, 0, 0, 0.0, -1))
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


#: Indices into the native loop's counters (the enum in ``fcat_walk.c``).
#: The last six say what the walk did, for attribution; they are not
#: part of the result.
(_EMPTY, _COLLISION, _ACTIVE, _LEARNED, _TRANSMISSIONS, _EMPTY_SLOTS,
 _SINGLETON_SLOTS, _COLLISION_SLOTS, _READ, _RESOLVED, _FRAMES,
 _ADVERTISEMENTS, _SLOT_INDEX, _ESTIMATES, _REPAIRED_FRAMES, _RETRY_ROUNDS,
 _DENSE_SHUFFLES, _RECORDS, _CASCADE_VISITS, _BINOMIAL_SETUPS,
 _N_STATS) = range(21)

#: The native loop's error statuses (the enum in ``fcat_walk.c``).
_NOMEM, _RUNAWAY, _ZERO_DIVISION = -2, -3, -4

#: A generator's ``bitgen_t`` address from its ``BitGenerator`` capsule:
#: the pointer ``bit_generator.ctypes.bit_generator`` holds, without the
#: ctypes interface that property builds for every new generator.
#: Its own prototype, so the shared ``ctypes.pythonapi`` entry keeps its
#: default signature.
_capsule_pointer = ctypes.PYFUNCTYPE(
    ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))


class _NativeFcatSession(_FcatKernelSession):
    """The same session, run by ``fcat_walk.c``.

    The inherited constructor builds the result and the estimator exactly
    as the Python session does;
    :meth:`_init_walk` hands the settings, the estimator's start and the
    generator's ``bitgen_t`` to C, which then holds the roster, the record
    store, the uniform block and the estimator.  :func:`_run_native`
    advances a whole batch in one call that never calls back into Python:
    the duplicate-rank repair is C too, drawing what
    :func:`resample_duplicate_slots` draws.  :meth:`close` folds the C
    counters and estimate trace into the result and frees the C state.
    """

    def _init_walk(self, n_tags: int, lam: int) -> None:
        self._lib = native.library()
        estimator = self.estimator
        config = native.Config(
            n_tags, lam, self.frame_size, self.max_slots, self.omega,
            self.max_p, estimator._remaining, estimator.source == "empty",
            EWMA_WEIGHT,
            *self.outcome_probs, self.draw_free)
        self._session = self._lib.fcat_new(
            ctypes.byref(config),
            _capsule_pointer(self.rng.bit_generator.capsule, b"BitGenerator"))
        if not self._session:
            raise MemoryError("the native FCAT loop could not allocate "
                              f"{n_tags} tags")

    def close(self) -> None:
        if not self._session:
            return
        stats = self._lib.fcat_stats(self._session)[:_N_STATS]
        result = self.result
        result.frames += stats[_FRAMES]
        result.advertisements += stats[_ADVERTISEMENTS]
        result.tag_transmissions += stats[_TRANSMISSIONS]
        result.empty_slots += stats[_EMPTY_SLOTS]
        result.singleton_slots += stats[_SINGLETON_SLOTS]
        result.collision_slots += stats[_COLLISION_SLOTS]
        result.n_read += stats[_READ]
        result.resolved_from_collision += stats[_RESOLVED]
        result.index_announcements += stats[_RESOLVED]
        if stats[_ESTIMATES]:
            result.estimate_trace += \
                self._lib.fcat_trace(self._session)[:stats[_ESTIMATES]]
        self._lib.fcat_free(self._session)
        self._session = None


def _run_native(lib: ctypes.CDLL, sessions: list[_NativeFcatSession],
                observed: bool) -> tuple[np.ndarray | None, int]:
    """Run a batch in one ``fcat_run`` call, which releases the GIL.

    Returns the batch's telemetry rows in lockstep order (``None`` when
    not ``observed``) and its status -- the rows also when the batch
    stopped on an error, so the frames run before it stay readable.  The
    rows are copied out of the C buffer before it is freed: frame blocks
    are shared, never mutated, and must own their memory.
    """
    handles = (ctypes.c_void_p * len(sessions))(
        *[session._session for session in sessions])
    table = native.Rows()
    status = lib.fcat_run(handles, len(handles),
                          ctypes.byref(table) if observed else None)
    if not observed:
        return None, status
    rows = np.empty(table.len, native.ROW)
    if table.len:
        ctypes.memmove(rows.ctypes.data, table.data, rows.nbytes)
        lib.fcat_rows_free(ctypes.byref(table))
    return rows, status


def _raise_for(status: int, max_slots: int) -> None:
    """Raise the error a failed ``fcat_run`` status stands for."""
    if status == _RUNAWAY:
        raise _runaway(max_slots)
    if status == _ZERO_DIVISION:
        raise ZeroDivisionError("float division by zero")
    if status:
        raise MemoryError("the native FCAT loop ran out of memory")


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
    as they terminate.  Wherever :func:`repro.kernels.native.library`
    loads, the whole batch runs in one native call; otherwise the Python
    walk runs it.

    Under an active observation the batch's telemetry rows are handed to
    the event stream once, as one array, when the batch ends -- also when
    the runaway guard raises, so the frames run before it stay readable.
    """
    obs = scope.active()
    # The Python walk's shared row list; the native loop returns an array.
    rows: list[tuple] | None = None if obs is None else []
    block: np.ndarray | None = None
    lib = native.library()
    sessions: list[_FcatKernelSession] = []
    try:
        for rng in rngs:
            args = (protocol.name, protocol, n_tags, rng, channel, timing,
                    rows)
            sessions.append(_FcatKernelSession(*args) if lib is None
                            else _NativeFcatSession(*args))
        if lib is not None:
            block, status = _run_native(lib, sessions, obs is not None)
            _raise_for(status, sessions[0].max_slots)
        else:
            # Lockstep frame loop: each round advances every live session
            # by one frame.
            alive = sessions
            while alive:
                alive = [session for session in alive
                         if not session.step()]
    finally:
        for session in sessions:
            session.close()
        if obs is not None:
            if block is None:
                block = np.array(rows, native.ROW)
            _record_telemetry(obs, protocol.name, block, sessions)
    return [session.result for session in sessions]


def _record_telemetry(obs: scope.Observation, name: str, rows: np.ndarray,
                      sessions: list[_FcatKernelSession]) -> None:
    """Fold one batch's telemetry into ``obs``, in row order."""
    if not len(rows):
        return  # no frame ran: nothing to record, no instrument to create
    obs.events.record_frames(name, rows)
    # |estimate - actual| / max(actual, 1) per frame row (not the probes'),
    # in row order: the same float operations, element by element.
    # Masking the two columns, not the records, copies 16 bytes a row.
    actual = rows["actual"]
    frame = actual >= 0
    actual = actual[frame]
    obs.metrics.histogram("estimator.rel_error").observe_many(
        np.abs(rows["estimate"][frame] - actual) / np.maximum(actual, 1))
    resolved = sum(session.result.resolved_from_collision
                   for session in sessions)
    if resolved:
        obs.count("kernel.anc_resolved", resolved)
