"""KernelRecordStore vs the scalar RecordStore: same resolution closure.

The kernel store trades the scalar's frozenset-keyed record objects for
flat unknown-counter bookkeeping over dense indices; these tests pin the
observable contract -- the *set* of resolved tags after any interleaving
of records and learns -- against the scalar reference, including the
duplicate-residual corner a cascade can introduce.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.collision import RecordStore
from repro.kernels.records import KernelRecordStore


def test_pair_resolves_when_one_participant_is_learned():
    store = KernelRecordStore(lam=2, n_tags=4)
    assert store.add_record(0, [0, 1]) == []
    assert store.learn(0) == [1]
    assert store.is_learned(1)
    assert store.learned_count == 2


def test_cascade_chains_through_records():
    store = KernelRecordStore(lam=2, n_tags=5)
    store.add_record(0, [0, 1])
    store.add_record(1, [1, 2])
    store.add_record(2, [2, 3])
    resolved = store.learn(0)
    assert resolved == [1, 2, 3]
    assert store.learned_count == 4


def _two_chains() -> KernelRecordStore:
    """Tag 0 resolves 1 and 2, which resolve 3 and 4 in turn."""
    store = KernelRecordStore(lam=2, n_tags=5)
    for pair in ([0, 1], [0, 2], [1, 3], [2, 4]):
        store.add_record(0, pair)
    return store


def test_the_cascade_pops_pending_lists_last_in_first_out():
    """The resolution order, which fixes the walks' roster permutation:
    a pending list in order, then the lists its resolutions detached,
    the last one first (``fcat_walk.c`` pops the same stack)."""
    store = _two_chains()
    assert store.learn(0) == [1, 2, 4, 3]
    assert store.learned_count == 5
    # The FCAT walk detaches a learned tag's list itself and keeps the
    # count: the cascade marks every resolution learned, counts none.
    store = _two_chains()
    store._learned[0] = 1
    entries, store._by_tag[0] = store._by_tag[0], None
    assert store.cascade(entries) == [1, 2, 4, 3]
    assert all(store.is_learned(tag) for tag in range(5))
    assert store.learned_count == 0


def test_record_with_single_unknown_resolves_at_creation():
    store = KernelRecordStore(lam=3, n_tags=4)
    store.learn(0)
    store.learn(1)
    assert store.add_record(7, [0, 1, 2]) == [2]
    assert store.is_learned(2)


def test_fully_known_record_is_a_no_op():
    store = KernelRecordStore(lam=2, n_tags=3)
    store.learn(0)
    store.learn(1)
    assert store.add_record(0, [0, 1]) == []
    assert store.learned_count == 2


def test_oversized_and_unusable_records_are_dropped():
    store = KernelRecordStore(lam=2, n_tags=5)
    store.add_record(0, [0, 1, 2])  # k = 3 > lam: ANC cannot resolve it
    store.add_record(1, [3, 4], usable=False)  # noise-corrupt residual
    assert store.learn(0) == []
    assert store.learn(1) == []
    assert store.learn(3) == []
    assert store.learned_count == 3


def test_duplicate_record_yields_one_resolution():
    store = KernelRecordStore(lam=2, n_tags=3)
    store.add_record(0, [0, 1])
    store.add_record(1, [0, 1])  # same pair collides again
    resolved = store.learn(0)
    # Both records resolve tag 1 but a real reader discards the duplicate
    # ID announcement -- the second record is a spent residual.
    assert resolved == [1]
    assert store.learned_count == 2


def test_relearning_a_tag_is_idempotent():
    store = KernelRecordStore(lam=2, n_tags=3)
    store.add_record(0, [0, 1])
    assert store.learn(0) == [1]
    assert store.learn(0) == []
    assert store.learn(1) == []
    assert store.learned_count == 2


def test_wide_records_resolve_only_at_the_last_unknown():
    store = KernelRecordStore(lam=4, n_tags=6)
    store.add_record(0, [0, 1, 2, 3])
    # Learning participants one by one counts the record down; it must
    # only resolve at the "all known but one" moment.
    assert store.learn(0) == []
    assert store.learn(1) == []
    assert store.learn(2) == [3]


def test_rejects_degenerate_configs():
    with pytest.raises(ValueError):
        KernelRecordStore(lam=1, n_tags=4)
    store = KernelRecordStore(lam=2, n_tags=4)
    with pytest.raises(ValueError):
        store.add_record(0, [0])


@pytest.mark.parametrize("lam", [2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_closure_matches_the_scalar_store(lam, seed):
    """Randomized interleavings: the resolved sets must agree exactly.

    This is the regression net for the unknown-counter bookkeeping
    (per-participant decrements, cascade-order races, duplicate
    residuals):
    any premature or missed resolution diverges from the scalar eager
    closure within a few hundred operations.
    """
    rng = np.random.default_rng(seed)
    n_tags = 40
    kernel = KernelRecordStore(lam=lam, n_tags=n_tags)
    scalar = RecordStore(lam=lam)
    kernel_resolved: set[int] = set()
    scalar_resolved: set[int] = set()
    for op in range(300):
        if rng.random() < 0.7:
            k = int(rng.integers(2, lam + 2))  # sometimes k = lam + 1 > lam
            parts = [int(t) for t in rng.choice(n_tags, size=k,
                                                replace=False)]
            usable = bool(rng.random() > 0.1)
            kernel_resolved.update(kernel.add_record(op, parts,
                                                     usable=usable))
            _record, pairs = scalar.add_record(op, parts, usable=usable)
            scalar_resolved.update(tag for tag, _slot in pairs)
        else:
            tag = int(rng.integers(0, n_tags))
            kernel_resolved.update(kernel.learn(tag))
            scalar_resolved.update(
                tag_id for tag_id, _slot in scalar.learn(tag))
        assert kernel.learned_count == scalar.learned_count
    assert kernel_resolved == scalar_resolved
    for tag in range(n_tags):
        assert kernel.is_learned(tag) == scalar.is_learned(tag)
