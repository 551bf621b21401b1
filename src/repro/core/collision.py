"""Collision records and the iterative resolution cascade (section IV-B).

The reader stores, for every collision slot, the mixed signal plus the slot
index.  Whenever it learns a new tag ID -- from a singleton slot or from a
previous resolution -- it can decide, via the deterministic report hash
``H(ID|j)``, which stored records that tag contributed to.  A record whose
constituents are all known but one (and whose constituent count is within the
ANC capability λ) is resolved: the known signals are subtracted, the residual
CRC-checked, and one more ID is learned, possibly unlocking further records.
This is the ``while S != empty`` loop of the paper's pseudo-code.

At protocol-simulation level the mixed signal is represented by the record's
hidden participant set.  The store only ever exposes the two operations a real
reader has: "did this (now known) ID transmit in slot j?" (the hash test,
which is exact -- see DESIGN.md) and "does the residual CRC-verify?" (true iff
exactly one unknown constituent remains and the record is within λ and not too
noisy).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field


@dataclass
class CollisionRecord:
    """One recorded collision slot (mixed signal + slot index)."""

    slot_index: int
    participants: frozenset[int]
    #: Whether ANC can ever work on this record (noise draw, section IV-E).
    usable: bool = True
    known: set[int] = field(default_factory=set)
    resolved: bool = False
    retired: bool = False

    @property
    def k(self) -> int:
        """Number of tags that transmitted simultaneously (the ``k`` in
        "k-collision slot")."""
        return len(self.participants)

    def unknown_participants(self) -> frozenset[int]:
        return self.participants - self.known


class RecordStore:
    """All collision records of a session plus the resolution cascade."""

    def __init__(self, lam: int) -> None:
        if lam < 2:
            raise ValueError("lam must be >= 2 (ANC resolves k-collisions, k>=2)")
        self.lam = lam
        self._records: list[CollisionRecord] = []
        self._by_tag: dict[int, list[CollisionRecord]] = {}
        self._learned: set[int] = set()

    @property
    def records(self) -> list[CollisionRecord]:
        return self._records

    @property
    def learned_ids(self) -> frozenset[int]:
        return frozenset(self._learned)

    @property
    def learned_count(self) -> int:
        return len(self._learned)

    def is_learned(self, tag_id: int) -> bool:
        return tag_id in self._learned

    def add_record(self, slot_index: int, participants: Iterable[int],
                   usable: bool = True
                   ) -> tuple[CollisionRecord, list[tuple[int, int]]]:
        """Store the mixed signal of a fresh collision slot.

        If tags that missed an earlier acknowledgement collide again, the new
        record may be resolvable on the spot; any IDs recovered that way (and
        transitively through the cascade) are returned alongside the record.
        """
        record = CollisionRecord(slot_index=slot_index,
                                 participants=frozenset(participants),
                                 usable=usable)
        if record.k < 2:
            raise ValueError("a collision record needs at least 2 participants")
        if not usable or record.k > self.lam:
            # The ANC step can never succeed on this record (noise, or more
            # constituents than the decoder handles): the residual CRC will
            # reject every attempt.  A real reader would keep the signal and
            # burn cycles on it; the simulation retires it at creation, which
            # is observationally identical and keeps the per-tag index small
            # (a p=1 termination probe can record thousands of participants).
            record.retired = True
            self._records.append(record)
            return record, []
        # Constituents already known (e.g. a tag that missed its ack and
        # collided again) are credited immediately.
        record.known = set(record.participants & self._learned)
        self._records.append(record)
        # Indexing a record under each unknown tag mutates shared dicts:
        # per-record bookkeeping, not a numeric loop.
        for tag in record.unknown_participants():
            self._by_tag.setdefault(tag, []).append(record)
        resolved: list[tuple[int, int]] = []
        recovered = self._maybe_resolve(record)  # may already be one-unknown
        if recovered is not None:
            resolved.append((recovered, record.slot_index))
            resolved.extend(self.learn(recovered))
        return record, resolved

    def learn(self, tag_id: int) -> list[tuple[int, int]]:
        """Feed a newly learned ID into the cascade.

        Returns ``(resolved_tag_id, record_slot_index)`` pairs in resolution
        order -- every ID recovered from a collision record as a consequence
        of learning ``tag_id``, directly or transitively.
        """
        if tag_id in self._learned:
            return []
        self._learned.add(tag_id)
        resolved: list[tuple[int, int]] = []
        queue = [tag_id]
        # The cascade is a worklist fixpoint: each newly learned tag can
        # unlock more records, so iterations are inherently ordered.
        while queue:
            current = queue.pop()
            for record in self._by_tag.pop(current, []):
                if record.retired:
                    continue
                record.known.add(current)
                recovered = self._maybe_resolve(record)
                if recovered is not None:
                    self._learned.add(recovered)
                    resolved.append((recovered, record.slot_index))
                    queue.append(recovered)
        return resolved

    def _maybe_resolve(self, record: CollisionRecord) -> int | None:
        """Apply the ANC resolvability rule to one record; retire if spent.

        Only reachable for usable records with ``k <= lam`` -- everything
        else was retired at creation.
        """
        unknown = record.unknown_participants()
        if not unknown:
            record.retired = True  # nothing left to learn from it
            return None
        if len(unknown) > 1:
            return None
        recovered = next(iter(unknown))
        record.known.add(recovered)
        record.resolved = True
        record.retired = True
        if recovered in self._learned:
            # The residual decodes to an ID learned moments ago through
            # another record; a real reader discards the duplicate.
            return None
        return recovered

    def outstanding_records(self) -> int:
        """Number of stored records that could still resolve."""
        return sum(1 for r in self._records if not r.retired)

    def resolved_count(self) -> int:
        return sum(1 for r in self._records if r.resolved)
