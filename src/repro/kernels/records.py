"""Index-based collision records for the vectorized kernels.

The scalar :class:`repro.core.collision.RecordStore` keys records by 96-bit
tag IDs wrapped in ``frozenset``s -- exactly right for the reference
implementation, where populations are real EPC IDs, but needless overhead
for the kernels, which simulate over dense tag *indices* ``0..N-1`` (slot
outcomes never depend on ID bit patterns; see ``docs/performance.md``).

:class:`KernelRecordStore` computes the same resolution closure -- a
record resolves its last unknown participant once every other participant
is known, resolutions feed transitively into further records -- over flat
structures sized by the population, using an *unknown-counter* scheme:

* a record is stored as ``[unknown_count, u0, u1, ...]`` -- the count of
  its still-unknown participants followed by exactly those participants
  (already-known constituents carry no future information and are
  dropped at creation);
* each record is registered in every unknown participant's pending list
  (``_by_tag``);
* learning a tag visits the records registered under it: each visit
  decrements the counter, and the decrement to one *is* the "all known
  but one" moment -- a short scan over the (``<= lam``) stored
  participants finds the survivor and resolves it.  A record's counter
  hits zero when it is spent, so re-visits through a cascade skip in two
  comparisons.

A session identifies every tag before terminating, so each record is
eventually visited once per stored participant no matter the scheme;
making the *visit* the cheap operation (counter decrement, no watcher
swaps, no stale entries) beats lazier schemes whose bookkeeping is paid
on exactly as many visits.  The resolution *set* is identical to the
scalar store's eager closure (both compute the same monotone fixpoint);
the order within a cascade may differ, which is statistically irrelevant
(it permutes the kernel's internal roster only) and is pinned as part of
kernel-v2 semantics by the equivalence tests.

:meth:`KernelRecordStore.register` is the one record path and
:meth:`KernelRecordStore.cascade` the one cascade body: ``add_record`` and
``learn`` use them, and so does the Python FCAT walk
(:mod:`repro.kernels.fcat`), which touches the pending lists and learned
flags itself only to detach a read tag's list and to drop learned
participants.  ``fcat_walk.c`` computes the same resolutions in the same
order -- pending lists in append order, the cascade's LIFO stack -- from
a leaner record: the count of participants not yet visited and the XOR
of their indices, which is the survivor once the count reaches one.
The bit-identity tests hold the two walks to the same resolution order.

Records that can never resolve (noise-unusable or ``k > lam``) are
counted by the session but not stored at all: the scalar store keeps them
only for introspection, and dropping them keeps the pending lists small
when a ``p = 1`` termination probe records thousands of participants.
"""

from __future__ import annotations

from collections.abc import Iterable


class KernelRecordStore:
    """The ANC resolution cascade over dense tag indices.

    Mirrors the observable behaviour of
    :class:`repro.core.collision.RecordStore` (resolution closure,
    retire-on-spent, duplicate-residual discard) for the kernel sessions.
    """

    __slots__ = ("lam", "_by_tag", "_learned", "_learned_count")

    def __init__(self, lam: int, n_tags: int) -> None:
        if lam < 2:
            raise ValueError("lam must be >= 2 (ANC resolves k-collisions, "
                             "k>=2)")
        self.lam = lam
        # _by_tag[tag] is the list of live records registered under that
        # tag, or None once the tag is learned (its list is popped into
        # the cascade) or before its first record.
        self._by_tag: list[list[list[int]] | None] = [None] * n_tags
        self._learned = bytearray(n_tags)
        self._learned_count = 0

    @property
    def learned_count(self) -> int:
        return self._learned_count

    def is_learned(self, tag: int) -> bool:
        return bool(self._learned[tag])

    def add_record(self, slot_index: int, participants: Iterable[int],
                   usable: bool = True) -> list[int]:
        """Store one collision slot's mixed signal; may resolve on the spot.

        Returns the tags recovered immediately (a record whose
        constituents are all known but one), including the transitive
        cascade -- the same contract as the scalar
        ``RecordStore.add_record`` minus the record object itself.
        ``slot_index`` is accepted for signature parity with the scalar
        store; resolutions are attributed to the slot that triggers them.
        """
        parts = list(participants)
        k = len(parts)
        if k < 2:
            raise ValueError("a collision record needs at least 2 "
                             "participants")
        if not usable or k > self.lam:
            # Dropped at creation: the residual CRC rejects every attempt,
            # so nothing downstream can ever observe this record.
            return []
        learned = self._learned
        unknown = [tag for tag in parts if not learned[tag]]
        n_unknown = len(unknown)
        if n_unknown == 0:
            return []  # every constituent already known: nothing to learn
        if n_unknown == 1:
            # Resolvable on the spot (tags that missed an ack collided
            # again): learn the single unknown and run the cascade.
            recovered = unknown[0]
            return [recovered] + self.learn(recovered)
        self.register(unknown)
        return []

    def register(self, unknown: list[int]) -> None:
        """Store a record over ``unknown``, two or more unlearned tags,
        appended to each one's pending list."""
        rec = [len(unknown)] + unknown
        by_tag = self._by_tag
        for tag in unknown:
            entries = by_tag[tag]
            if entries is None:
                by_tag[tag] = [rec]
            else:
                entries.append(rec)

    def learn(self, tag: int) -> list[int]:
        """Feed a newly learned index into the cascade.

        Returns the resolved tag indices in resolution order.
        """
        learned = self._learned
        if learned[tag]:
            return []
        learned[tag] = 1
        entries = self._by_tag[tag]
        self._by_tag[tag] = None
        out = [] if entries is None else self.cascade(entries)
        self._learned_count += 1 + len(out)
        return out

    def cascade(self, entries: list[list[int]]) -> list[int]:
        """Resolve what one detached pending list lets resolve.

        ``entries`` is a just-learned tag's pending list, already detached
        from ``_by_tag``.  Each resolved tag is marked learned, and its
        own pending list is detached and pushed on a stack that is popped
        once the current list is done (last in, first out, as
        ``fcat_walk.c`` does).  Returns the resolved tags in resolution
        order; :attr:`learned_count` is left to the caller.  Draws
        nothing, so a caller may act on the resolutions afterwards in
        that order as if it had acted on each one as it came.
        """
        learned = self._learned
        by_tag = self._by_tag
        out: list[int] = []
        stack: list[list[list[int]]] = []
        # The cascade is a worklist fixpoint over ragged pending lists:
        # inherently serial, O(total record visits), nothing rectangular
        # to mask over (the kernels batch the *draws*, not the closure).
        while True:
            for rec in entries:
                c = rec[0]
                if c < 2:
                    continue  # spent (stored counts are never 1)
                rec[0] = c - 1
                if c > 2:
                    continue  # still more than one unknown participant
                # The count just hit one: the lone survivor resolves now.
                rec[0] = 0  # retired either way
                for other in rec[1:]:
                    if not learned[other]:
                        break
                else:
                    # Duplicate residual: the last unknown was learned
                    # moments ago through another record of this same
                    # cascade; a real reader discards the duplicate ID.
                    continue
                learned[other] = 1
                out.append(other)
                pending = by_tag[other]
                if pending is not None:
                    by_tag[other] = None
                    stack.append(pending)
            if not stack:
                return out
            entries = stack.pop()
