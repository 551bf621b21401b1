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
never drawing them, every Bernoulli cell being independent.  Two replay
bodies implement the same process:

* ``_replay_exact`` -- handles every configuration (channel impairments,
  bootstrap-abort) with the scalar engine's slot logic and emits one
  ``anc_resolution`` event per resolving slot;
* ``_replay_lean`` -- the measured hot path for the perfect channel,
  observed or not, where three invariants license shortcuts: no
  channel draw ever happens, an identified tag is always acked (so a
  transmitting tag is never already learned and records never resolve
  eagerly at creation), and mid-frame cancellations only arise from
  learning a tag with a pre-drawn transmission later in the same frame
  (tracked with a per-frame last-event map built only when some rank
  actually repeats, instead of filtering every slot).

Both bodies consume the generator identically (only the frame draw uses
it on a perfect channel), so they are bit-for-bit interchangeable where
the lean preconditions hold -- pinned by ``tests/kernels``.  Under an
active observation both emit the per-frame ``frame`` and
``estimator_update`` events and fold their resolutions into the
``kernel.anc_resolved`` counter; the lean body adds that counter once per
frame instead of emitting per-slot ``anc_resolution`` events.

Seed semantics are **kernel-v2** (``docs/performance.md``): each session
owns an independent per-run generator minted from the same spawned child
seed the scalar path uses, but consumes it in frame-at-once order, so
kernel results differ bit-wise from scalar results while following the
identical process law.  Equivalence is pinned by the paired statistical
tests in ``tests/kernels/``.

Known coarsening vs the scalar engine: the ``max_slots`` runaway guard is
checked at frame granularity (a stuck session raises at the first frame
*starting* past the limit, up to ``frame_size - 1`` slots later than the
scalar per-slot check), and per-slot ``SessionTrace`` logging is not
offered -- trace requests route to the scalar engine.
"""

from __future__ import annotations

import numpy as np

from repro.air.timing import ICODE_TIMING, TimingModel
from repro.core.estimator import EmbeddedEstimator
from repro.core.fcat import Fcat
from repro.kernels.frame import (RankSource, draw_slot_counts,
                                 resample_duplicate_slots)
from repro.kernels.records import KernelRecordStore
from repro.obs import scope
from repro.sim.channel import PERFECT_CHANNEL, ChannelModel
from repro.sim.result import ReadingResult


def _draw_free(channel: ChannelModel) -> bool:
    """True when the channel never consumes the generator (all probs 0)."""
    return (channel.singleton_corrupt_prob == 0.0
            and channel.ack_loss_prob == 0.0
            and channel.collision_unusable_prob == 0.0
            and channel.capture_prob == 0.0)


class _FcatKernelSession:
    """One FCAT session advanced frame by frame over dense tag indices."""

    def __init__(self, name: str, protocol: Fcat, n_tags: int,
                 rng: np.random.Generator,
                 channel: ChannelModel = PERFECT_CHANNEL,
                 timing: TimingModel = ICODE_TIMING) -> None:
        config = protocol.config
        if config.zigzag:
            raise ValueError("the FCAT kernel does not implement ZigZag; "
                             "use the scalar engine")
        self.config = config
        self.rng = rng
        self.ranks = RankSource(rng)
        self.channel = channel
        self.omega = config.effective_omega
        # Dense roster: `items` holds the active tag indices, `pos[tag]`
        # its position in `items` (-1 once removed).  Swap-remove keeps
        # both O(1); removals are deferred to frame end so the frame's
        # rank -> tag map stays stable during the replay.
        self.items = list(range(n_tags))
        self.pos = list(range(n_tags))
        self.store = KernelRecordStore(config.lam, n_tags)
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
        self.abort_after = config.bootstrap_abort_after
        self.max_p = config.max_report_probability
        self.obs = scope.active()
        self.name = name
        # `draw_free` licenses the uninformative-frame fast path (no
        # channel draw can ever flip a slot's class) and the shortcut
        # replay body; observation does not change which body runs.
        self.draw_free = _draw_free(channel)
        self.lean = self.draw_free

    def step(self) -> bool:
        """Advance one frame (plus termination probe); True when done."""
        if self._run_frame() == self.frame_size:
            return self._termination_probe()
        return False

    # -- frame mechanics ---------------------------------------------------

    def _run_frame(self) -> int:
        """Replay one pre-drawn frame; returns its empty-slot count."""
        result = self.result
        store = self.store
        estimator = self.estimator
        frame_size = self.frame_size
        identified_at_start = store._learned_count
        remaining = estimator._remaining  # inlined estimator.remaining()
        if remaining < 1.0:
            remaining = 1.0
        p = self.omega / remaining
        if p > self.max_p:
            p = self.max_p
        result.advertisements += 1  # pre-frame advertisement
        result.frames += 1
        if self.slot_index >= self.max_slots:
            raise RuntimeError(
                f"FCAT session exceeded {self.max_slots} slots -- "
                "estimator or termination logic is stuck")
        base = self.slot_index
        abort_after = self.abort_after
        bootstrapping = abort_after is not None and not estimator.samples
        n_active = len(self.items)
        counts, total = draw_slot_counts(self.rng, n_active, frame_size, p)
        if total == 0:
            # Silent frame: account every slot in one step.
            self.slot_index = base + frame_size
            result.empty_slots += frame_size
            estimator.update(0, p, identified_at_start,
                             identified_at_start, n_empty=frame_size)
            remaining = estimator._remaining
            result.estimate_trace.append(
                remaining if remaining > 1.0 else 1.0)
            if self.obs is not None:
                self._observe_frame(p, frame_size, frame_size, 0)
            return frame_size
        lam = store.lam
        if self.draw_free and not bootstrapping and 1 not in counts:
            # No singleton slot on a draw-free channel: nothing can be
            # learned this frame, so no cancellation can arise and every
            # k > lam slot is an unresolvable collision whose transmitter
            # identities are unobservable -- their draw is skipped
            # outright (kernel-v2 consumption).  Covers the bootstrap
            # ramp, the estimate-transition frames and the saturated
            # endgame, where totals are largest.
            record_total = sum(k for k in counts if k <= lam)
            n_empty = counts.count(0)
            if record_total:
                # Only the 2 <= k <= lam slots are observable (they store
                # records): draw and repair just those segments.  Their
                # conditional law -- independent uniform distinct
                # k-tuples per slot -- is the scalar one; a tag appearing
                # in two different slots is legitimate and kept.
                ranks = self.ranks.draw(n_active, record_total)
                record_counts = [k for k in counts if 2 <= k <= lam]
                resample_duplicate_slots(self.rng, n_active,
                                         record_counts, ranks)
                self._store_frame_records(counts, ranks, lam)
            self.slot_index = base + frame_size
            result.tag_transmissions += total
            result.empty_slots += n_empty
            result.collision_slots += frame_size - n_empty
            estimator.update(frame_size - n_empty, p,
                             identified_at_start, identified_at_start,
                             n_empty=n_empty)
            remaining = estimator._remaining
            result.estimate_trace.append(
                remaining if remaining > 1.0 else 1.0)
            if self.obs is not None:
                self._observe_frame(p, frame_size, n_empty,
                                    frame_size - n_empty)
            return n_empty
        if p >= 1.0:
            # Deterministic saturated frame: every active tag, every slot.
            ranks = list(range(n_active)) * frame_size
        else:
            ranks = self.ranks.draw(n_active, total)
        # Fewer distinct ranks than transmissions means some rank
        # repeats, possibly inside a single slot, which the scalar slot
        # law forbids -- repair exactly those segments.  Frame-wide
        # repeats across slots are legitimate, but only then can a tag
        # learned mid-frame transmit again later, so the cancellation
        # machinery (and its last-event map) is needed at all only in
        # the has_dups case.
        frame_ranks = set(ranks)
        has_dups = len(frame_ranks) < total
        if has_dups:
            if resample_duplicate_slots(self.rng, n_active, counts, ranks):
                frame_ranks = set(ranks)
                has_dups = len(frame_ranks) < total
        # `removed` preserves insertion order in both bodies (list /
        # dict): `_apply_removals` swap-removes, so the roster permutation
        # -- and with it the rank -> tag map of every later frame --
        # depends on removal order; a hash-ordered set would break the
        # lean/exact bit-identity.
        if self.lean and not bootstrapping:
            removed: list[int] | dict[int, None] = []
            last_pos = dict(zip(ranks, range(total))) if has_dups else None
            stats = self._replay_lean(counts, ranks, frame_ranks,
                                      last_pos, removed)
        else:
            removed = {}
            stats = self._replay_exact(base, counts, ranks, removed,
                                       bootstrapping, abort_after)
        n_empty, n_collision, slots_run, aborted = stats
        self.slot_index = base + slots_run
        if removed:
            self._apply_removals(removed)
        if aborted:
            # Still blind and wall-to-wall collisions: the frame was cut
            # short; double the estimate and re-advertise.
            estimator.update(frame_size, p, identified_at_start,
                             store._learned_count, n_empty=0)
            self._observe_frame(p, slots_run, n_empty, n_collision)
            return n_empty
        estimator.update(n_collision, p, identified_at_start,
                         store._learned_count, n_empty=n_empty)
        remaining = estimator._remaining
        result.estimate_trace.append(remaining if remaining > 1.0 else 1.0)
        if self.obs is not None:
            self._observe_frame(p, slots_run, n_empty, n_collision)
        return n_empty

    def _store_frame_records(self, counts: list[int], ranks: list[int],
                             lam: int) -> None:
        """Store the ``2 <= k <= lam`` slots of a no-singleton frame.

        ``ranks`` holds only those slots' segments (the unresolvable
        ``k > lam`` slots were never drawn).  No tag can be learned in
        such a frame, so every participant is unknown and the record's
        counter is simply ``k``; every participant registers.
        """
        by_tag = self.store._by_tag
        items = self.items
        offset = 0
        for k in counts:
            if k < 2 or k > lam:
                continue
            end = offset + k
            rec = [k] + [items[r] for r in ranks[offset:end]]
            offset = end
            for j in range(1, k + 1):
                tag = rec[j]
                entries = by_tag[tag]
                if entries is None:
                    by_tag[tag] = [rec]
                else:
                    entries.append(rec)

    def _replay_lean(self, counts: list[int], ranks: list[int],
                     frame_ranks: set[int], last_pos: dict[int, int] | None,
                     removed: list[int]) -> tuple[int, int, int, bool]:
        """Hot replay body: perfect channel, no bootstrap abort.

        ``last_pos`` (rank -> last event position) is built only for
        frames where some rank transmits twice: there a tag learned
        mid-frame has its later pre-drawn transmissions cancelled, which
        can downgrade later slots (collision -> singleton -> empty) or
        shrink a ``k > lam`` slot into a usable record.  In the common
        no-duplicate frame (``last_pos is None``) a singleton's tag can
        never transmit again later, so only cascade-*resolved* tags --
        whose one pre-drawn event may still lie ahead -- need cancelling,
        and membership in ``frame_ranks`` (the dup-detection set built
        anyway) suffices: if the one occurrence was already behind, the
        cancel entry simply never matches, and the false positive is
        harmless precisely because no rank repeats.
        """
        store = self.store
        lam = store.lam
        by_tag = store._by_tag
        learned = store._learned
        items = self.items
        pos = self.pos
        append_removed = removed.append
        cancel: set[int] | None = None
        n_singleton = n_collision = n_resolved = 0
        cancelled_empty = collision_transmissions = 0
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
                    cancelled_empty += 1
                    continue
            elif cancel is None:
                seg = None
            else:
                seg = [r for r in ranks[start:end] if r not in cancel]
                k = len(seg)
                if k == 0:
                    cancelled_empty += 1
                    continue
                if k == 1:
                    rank = seg[0]
                    seg = None
            if k == 1:
                # Singleton: read, learn, ack (always received on the
                # perfect channel), then run the resolution cascade --
                # `KernelRecordStore._cascade_into` inlined below so
                # resolutions feed the removal list and the cancel set
                # without any intermediate bookkeeping (see records.py
                # for the unknown-counter visit logic this mirrors).
                tag = items[rank]
                n_singleton += 1
                learned[tag] = 1
                append_removed(tag)
                if last_pos is not None and last_pos[rank] >= end:
                    if cancel is None:
                        cancel = set()
                    cancel.add(rank)
                entries = by_tag[tag]
                if entries is None:
                    continue
                by_tag[tag] = None
                stack = None
                # The cascade is a worklist fixpoint over ragged pending
                # lists: inherently serial, O(total record visits).
                while True:
                    for rec in entries:
                        c = rec[0]
                        if c < 2:
                            continue  # spent (stored counts never hit 1)
                        rec[0] = c - 1
                        if c > 2:
                            continue  # still > 1 unknown participant
                        # The count just hit one: resolve the survivor --
                        # the lone unlearned stored participant (none on
                        # a duplicate residual).  Unrolled over the
                        # first four stored participants, looped over the
                        # rest (λ >= 5); the k == 2 case (the bulk) exits
                        # after two flag reads.
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
                        append_removed(other)
                        resolved_rank = pos[other]
                        if last_pos is None:
                            if resolved_rank in frame_ranks:
                                if cancel is None:
                                    cancel = set()
                                cancel.add(resolved_rank)
                        else:
                            position = last_pos.get(resolved_rank)
                            if position is not None and position >= end:
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
                continue
            collision_transmissions += k
            n_collision += 1
            if k > lam:
                continue
            # Inlined `store.add_record`, minus the learned scan: on a
            # perfect channel a transmitting tag is never already
            # learned, so the record starts fully unknown -- its counter
            # is simply k.  The common small sizes are unrolled (no
            # slice, no listcomp); every participant registers, mirroring
            # records.py.
            if seg is None:
                if k == 2:
                    rec = [2, items[ranks[start]], items[ranks[start + 1]]]
                elif k == 3:
                    rec = [3, items[ranks[start]], items[ranks[start + 1]],
                           items[ranks[start + 2]]]
                elif k == 4:
                    rec = [4, items[ranks[start]], items[ranks[start + 1]],
                           items[ranks[start + 2]], items[ranks[start + 3]]]
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
        store._learned_count += n_resolved
        if n_resolved and self.obs is not None:
            self.obs.count("kernel.anc_resolved", n_resolved)
        return self._finish_lean(n_singleton, n_collision, n_resolved,
                                 collision_transmissions)

    def _finish_lean(self, n_singleton: int, n_collision: int,
                     n_resolved: int, collision_transmissions: int,
                     ) -> tuple[int, int, int, bool]:
        """Fold a lean walk's flat counters into store and result.

        Every singleton slot learns exactly one tag on the perfect
        channel, so the learned count advances by ``n_singleton``
        (resolutions were already counted by the walk itself).  Every
        eventful slot lands in exactly one of the singleton / collision /
        cancelled-to-empty buckets, so the result's empty count -- drawn
        zeros plus cancelled-to-empty -- is just the frame size minus the
        first two, with no second pass over ``counts``.
        """
        self.store._learned_count += n_singleton
        result = self.result
        n_empty = self.frame_size - n_singleton - n_collision
        result.tag_transmissions += collision_transmissions + n_singleton
        result.empty_slots += n_empty
        result.singleton_slots += n_singleton
        result.collision_slots += n_collision
        result.n_read += n_singleton + n_resolved
        result.resolved_from_collision += n_resolved
        result.index_announcements += n_resolved
        return n_empty, n_collision, self.frame_size, False

    def _replay_exact(self, base: int, counts: list[int], ranks: list[int],
                      removed: dict[int, None], bootstrapping: bool,
                      abort_after: int | None,
                      ) -> tuple[int, int, int, bool]:
        """Reference replay body: any channel, telemetry, bootstrap-abort."""
        result = self.result
        items = self.items
        n_empty = n_collision = slots_run = 0
        offset = 0
        all_collisions = True
        # Slot-order replay of a bulk-pre-drawn frame: the channel draws
        # force sequencing.
        for slot, k in enumerate(counts):
            if k == 0:
                n_empty += 1
                result.empty_slots += 1
                slots_run += 1
                all_collisions = False
                continue
            start = offset
            offset = start + k
            tags = [items[rank] for rank in ranks[start:offset]]
            if removed:
                tags = [tag for tag in tags if tag not in removed]
            outcome = self._observe_slot(base + slot, tags, removed)
            slots_run += 1
            if outcome == "empty":
                n_empty += 1
                all_collisions = False
            elif outcome == "collision":
                n_collision += 1
            else:
                all_collisions = False
            if bootstrapping and all_collisions \
                    and n_collision >= abort_after:
                return n_empty, n_collision, slots_run, True
        return n_empty, n_collision, slots_run, False

    def _apply_removals(self, removed: list[int] | dict[int, None]) -> None:
        items = self.items
        pos = self.pos
        # Swap-remove bookkeeping over a Python roster: O(1) per removal,
        # nothing array-shaped to batch.
        for tag in removed:
            position = pos[tag]
            if position < 0:
                continue  # ack retry for an already-removed tag
            last = items[-1]
            items[position] = last
            pos[last] = position
            items.pop()
            pos[tag] = -1

    def _observe_frame(self, p: float, slots_run: int, n_empty: int,
                       n_collision: int) -> None:
        obs = self.obs
        if obs is None:
            return
        frame_index = self.result.frames - 1
        obs.emit("frame", protocol=self.name, frame_index=frame_index,
                 report_probability=p, empty=n_empty,
                 singleton=slots_run - n_empty - n_collision,
                 collision=n_collision)
        estimate = self.estimator.remaining()
        actual = len(self.items)
        obs.emit("estimator_update", protocol=self.name,
                 frame_index=frame_index, estimate=estimate,
                 actual_remaining=actual, error=estimate - actual)
        obs.observe_value("estimator.rel_error",
                          abs(estimate - actual) / max(actual, 1))

    # -- slot mechanics (exact path + termination probe) -------------------

    def _observe_slot(self, slot: int, tags: list[int],
                      removed: dict[int, None]) -> str:
        """Classify one eventful slot; mirrors scalar ``_observe``."""
        result = self.result
        channel = self.channel
        k = len(tags)
        result.tag_transmissions += k
        if k == 0:
            # Every pre-drawn transmitter was removed earlier in the frame.
            result.empty_slots += 1
            return "empty"
        if k == 1 and channel.singleton_ok(self.rng):
            self._handle_singleton(tags[0], slot, removed)
            return "singleton"
        if k >= 2 and channel.captured(self.rng):
            captured = tags[int(self.rng.integers(0, k))]
            rest = [tag for tag in tags if tag != captured]
            self._handle_singleton(captured, slot, removed)
            if len(rest) >= 2:
                usable = channel.record_usable(self.rng)
                resolved = self.store.add_record(slot, rest, usable)
                self._apply_resolutions(resolved, slot, removed)
            elif channel.record_usable(self.rng) \
                    and not self.store.is_learned(rest[0]):
                cascade = self.store.learn(rest[0])
                self._apply_resolutions([rest[0]] + cascade, slot, removed)
            return "singleton"
        result.collision_slots += 1
        if k >= 2:
            usable = channel.record_usable(self.rng)
            resolved = self.store.add_record(slot, tags, usable)
            self._apply_resolutions(resolved, slot, removed)
        return "collision"

    def _handle_singleton(self, tag: int, slot: int,
                          removed: dict[int, None]) -> None:
        self.result.singleton_slots += 1
        if not self.store.is_learned(tag):
            self.result.n_read += 1
        resolved = self.store.learn(tag)
        self._ack(tag, removed)
        self._apply_resolutions(resolved, slot, removed)

    def _apply_resolutions(self, resolved: list[int], slot: int,
                           removed: dict[int, None]) -> None:
        for tag in resolved:
            self.result.n_read += 1
            self.result.resolved_from_collision += 1
            self.result.index_announcements += 1
            self._ack(tag, removed)
        if self.obs is not None and resolved:
            self.obs.count("kernel.anc_resolved", len(resolved))
            self.obs.emit("anc_resolution", protocol=self.name,
                          slot_index=slot, resolved=len(resolved))

    def _ack(self, tag: int, removed: dict[int, None]) -> None:
        if self.channel.ack_received(self.rng):
            removed[tag] = None

    # -- termination -------------------------------------------------------

    def _termination_probe(self) -> bool:
        """One ``p = 1`` slot after an all-empty frame (section IV-A)."""
        self.result.advertisements += 1  # advertise p = 1
        if self.slot_index >= self.max_slots:
            raise RuntimeError(
                f"FCAT session exceeded {self.max_slots} slots -- "
                "estimator or termination logic is stuck")
        slot = self.slot_index
        self.slot_index += 1
        removed: dict[int, None] = {}
        outcome = self._observe_slot(slot, list(self.items), removed)
        if removed:
            self._apply_removals(removed)
        if self.obs is not None:
            self.obs.emit("termination_probe", protocol=self.name,
                          slot_index=slot, outcome=outcome)
        if outcome == "empty":
            return True
        if outcome == "collision":
            self.estimator.force_at_least(2.0)
        return False


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
    """
    sessions = [_FcatKernelSession(protocol.name, protocol, n_tags, rng,
                                   channel, timing) for rng in rngs]
    alive = sessions
    # Lockstep frame loop: each round advances every live session by one
    # frame; per-frame work is the vectorized replay above.
    while alive:
        alive = [session for session in alive if not session.step()]
    return [session.result for session in sessions]
