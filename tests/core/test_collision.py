"""Collision records and the resolution cascade, including the paper's
Fig. 1 walkthrough."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.collision import CollisionRecord, RecordStore


class TestRecordBasics:
    def test_k_and_unknowns(self):
        record = CollisionRecord(slot_index=0,
                                 participants=frozenset({1, 2, 3}))
        assert record.k == 3
        assert record.unknown_participants() == {1, 2, 3}

    def test_store_rejects_small_records(self):
        store = RecordStore(lam=2)
        with pytest.raises(ValueError):
            store.add_record(0, {42})

    def test_store_rejects_lam_below_two(self):
        with pytest.raises(ValueError):
            RecordStore(lam=1)


class TestResolution:
    def test_two_collision_resolves_on_second_id(self):
        store = RecordStore(lam=2)
        _, immediate = store.add_record(0, {10, 20})
        assert immediate == []
        resolved = store.learn(10)
        assert resolved == [(20, 0)]
        assert store.is_learned(20)
        assert store.resolved_count() == 1

    def test_k_above_lambda_never_resolves(self):
        store = RecordStore(lam=2)
        store.add_record(0, {1, 2, 3})
        assert store.learn(1) == []
        assert store.learn(2) == []  # 3-collision, lam=2: stays unresolved
        assert store.resolved_count() == 0

    def test_lambda_three_resolves_triple(self):
        store = RecordStore(lam=3)
        store.add_record(0, {1, 2, 3})
        assert store.learn(1) == []
        assert store.learn(2) == [(3, 0)]

    def test_unusable_record_never_resolves(self):
        store = RecordStore(lam=2)
        store.add_record(0, {1, 2}, usable=False)
        assert store.learn(1) == []
        assert store.outstanding_records() == 0  # retired as spent

    def test_cascade_chains_through_records(self):
        """Learning one ID can unlock a whole chain (section IV-B)."""
        store = RecordStore(lam=2)
        store.add_record(0, {1, 2})
        store.add_record(1, {2, 3})
        store.add_record(2, {3, 4})
        resolved = store.learn(1)
        assert resolved == [(2, 0), (3, 1), (4, 2)]

    def test_learn_is_idempotent(self):
        store = RecordStore(lam=2)
        store.add_record(0, {1, 2})
        store.learn(1)
        assert store.learn(1) == []
        assert store.learn(2) == []

    def test_duplicate_resolution_not_double_counted(self):
        """Two records resolving to the same tag yield it once."""
        store = RecordStore(lam=2)
        store.add_record(0, {1, 3})
        store.add_record(1, {2, 3})
        store.learn(1)  # pending: record 0 resolves 3
        resolved = store.learn(2)
        all_resolved = [tag for tag, _ in resolved]
        assert all_resolved.count(3) <= 1

    def test_record_with_known_participant_resolves_on_add(self):
        """A re-collision of an acked-but-deaf tag with a fresh one resolves
        immediately."""
        store = RecordStore(lam=2)
        store.learn(7)
        _, resolved = store.add_record(3, {7, 8})
        assert resolved == [(8, 3)]

    def test_fully_known_record_is_retired_on_add(self):
        store = RecordStore(lam=2)
        store.learn(1)
        store.learn(2)
        record, resolved = store.add_record(0, {1, 2})
        assert resolved == []
        assert record.retired and not record.resolved


class TestFigureOne:
    def test_paper_fig1_walkthrough(self):
        """Fig. 1(b): slots = [t1+t4, t2, t1, t2+t3, (t4 empty... ), t3].

        The reader hears t1 alone in slot 3 and recovers t4 from the slot-1
        mix; hearing t3 in slot 6 recovers t2 from the slot-4 mix.  Four IDs
        in six slots instead of eleven.
        """
        t1, t2, t3, t4 = 101, 102, 103, 104
        store = RecordStore(lam=2)
        store.add_record(1, {t1, t4})     # slot 1: mixed signal recorded
        learned = []
        learned.append(store.learn(t2))   # slot 2: singleton t2
        learned.append(store.learn(t1))   # slot 3: singleton t1 -> t4
        store.add_record(4, {t2, t3})     # slot 4: mix, t2 already known...
        # ...so the record resolves t3 the moment it is stored? No: the
        # reader must hear something first in Fig. 1; but our cascade is
        # allowed to use prior knowledge, which can only be faster.
        assert store.is_learned(t3) or store.learn(t3)
        assert store.learned_ids >= {t1, t2, t3, t4}
        assert learned[1] == [(t4, 1)]


class TestInvariants:
    @given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                    min_size=1, max_size=30),
           st.permutations(list(range(13))))
    @settings(max_examples=40, deadline=None)
    def test_cascade_never_invents_ids(self, pairs, learn_order):
        """Every resolved ID was a participant of some record, and no ID is
        resolved twice."""
        store = RecordStore(lam=2)
        participants: set[int] = set()
        for slot, (a, b) in enumerate(pairs):
            if a == b:
                continue
            store.add_record(slot, {a, b})
            participants |= {a, b}
        seen: list[int] = []
        for tag in learn_order:
            for resolved, _ in store.learn(tag):
                seen.append(resolved)
                assert resolved in participants
        assert len(seen) == len(set(seen))
