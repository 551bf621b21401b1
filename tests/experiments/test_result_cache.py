"""The content-addressed result cache: correctness before speed."""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

import pytest

from repro.baselines.dfsa import Dfsa
from repro.core.fcat import Fcat
from repro.experiments.executor import CellSpec, execute_cells
from repro.experiments.result_cache import (
    MAX_ENTRIES,
    ResultCache,
    _iter_signature_sources,
    canonical_fingerprint,
    package_signature,
)
from repro.experiments.runner import run_cell
from repro.kernels import native
from repro.kernels.engine import ENGINES
from repro.obs.scope import observe
from repro.sim.channel import ChannelModel
from repro.sim.result import AggregateResult, RunMetrics


class TestCanonicalFingerprint:
    def test_primitives_pass_through(self):
        assert canonical_fingerprint(3) == 3
        assert canonical_fingerprint(1.5) == 1.5
        assert canonical_fingerprint("x") == "x"
        assert canonical_fingerprint(None) is None

    def test_dataclass_captures_type_and_fields(self):
        fp = canonical_fingerprint(ChannelModel(ack_loss_prob=0.25))
        assert "ChannelModel" in fp
        assert fp["ChannelModel"]["ack_loss_prob"] == 0.25

    def test_dict_key_order_is_canonical(self):
        assert canonical_fingerprint({"b": 1, "a": 2}) \
            == canonical_fingerprint({"a": 2, "b": 1})

    def test_protocol_instances_fingerprint_their_config(self):
        a = json.dumps(canonical_fingerprint(Fcat(lam=2)), sort_keys=True)
        b = json.dumps(canonical_fingerprint(Fcat(lam=2)), sort_keys=True)
        c = json.dumps(canonical_fingerprint(Fcat(lam=2, frame_size=64)),
                       sort_keys=True)
        assert a == b
        assert a != c


class TestCellKey:
    SPEC = CellSpec(protocol=Dfsa(), n_tags=100, runs=3, seed=1)

    def test_distinct_channel_distinct_key(self):
        noisy = dataclasses.replace(
            self.SPEC, channel=ChannelModel(collision_unusable_prob=0.5))
        assert self.SPEC.key() != noisy.key()

    def test_key_is_a_sha256_hex(self):
        key = self.SPEC.key()
        assert len(key) == 64
        int(key, 16)  # raises if not hex


class TestResultCacheRoundTrip:
    def test_cold_then_warm_equality(self, tmp_path):
        for engine in ENGINES:
            path = tmp_path / f"{engine}.json"
            spec = CellSpec(protocol=Fcat(lam=2), n_tags=120, runs=3, seed=5,
                            engine=engine)
            (cold,) = execute_cells([spec], cache=ResultCache(path))
            warm_cache = ResultCache(path)
            (warm,) = execute_cells([spec], cache=warm_cache)
            for field in dataclasses.fields(AggregateResult):
                assert getattr(cold, field.name) == getattr(warm, field.name)
            assert warm_cache.hits == 1
            assert warm_cache.misses == 0

    def test_config_change_invalidates_by_address(self, tmp_path):
        path = tmp_path / "cache.json"
        run_cell(Fcat(lam=2), n_tags=120, runs=2, seed=5,
                 cache=ResultCache(path))
        cache = ResultCache(path)
        run_cell(Fcat(lam=2, omega=1.1), n_tags=120, runs=2, seed=5,
                 cache=cache)
        assert cache.hits == 0
        assert cache.misses == 1

    def test_signature_mismatch_empties_the_cache(self, tmp_path):
        path = tmp_path / "cache.json"
        stale = ResultCache(path, signature="old-source-tree")
        cold = run_cell(Dfsa(), n_tags=80, runs=2, seed=9, cache=stale)
        fresh = ResultCache(path, signature="new-source-tree")
        assert len(fresh) == 0
        recomputed = run_cell(Dfsa(), n_tags=80, runs=2, seed=9, cache=fresh)
        assert fresh.hits == 0
        assert cold == recomputed  # same spec, same result, either way

    def test_corrupt_cache_file_is_treated_as_empty(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{ not json")
        cache = ResultCache(path)
        assert len(cache) == 0
        run_cell(Dfsa(), n_tags=50, runs=2, seed=3, cache=cache)
        # and the save overwrote the corrupt file with a valid one
        assert len(ResultCache(path)) == 1

    def test_save_without_stores_is_a_noop(self, tmp_path):
        path = tmp_path / "cache.json"
        ResultCache(path).save()
        assert not path.exists()


class TestRunRangeEntries:
    """Per-run partials: what the adaptive planner stores and resumes."""

    @staticmethod
    def _values(start, stop):
        from repro.sim.result import RunMetrics
        return [RunMetrics(throughput=float(i), total_slots=i,
                           empty_slots=0, singleton_slots=i,
                           collision_slots=0, resolved_from_collision=0)
                for i in range(start, stop)]

    def test_exact_range_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache.json")
        cache.store_runs("k", 0, self._values(0, 4))
        assert cache.lookup_runs("k", 0, 4) == self._values(0, 4)
        assert cache.run_hits == 1
        assert cache.lookup_runs("k", 4, 8) is None
        assert cache.run_misses == 1

    def test_covering_span_serves_sub_ranges(self, tmp_path):
        cache = ResultCache(tmp_path / "cache.json")
        cache.store_runs("k", 0, self._values(0, 10))
        assert cache.lookup_runs("k", 3, 7) == self._values(3, 7)

    def test_prefix_spans_overlapping_batches(self, tmp_path):
        cache = ResultCache(tmp_path / "cache.json")
        cache.store_runs("k", 0, self._values(0, 3))
        cache.store_runs("k", 3, self._values(3, 6))
        cache.store_runs("k", 2, self._values(2, 8))  # overlaps both
        cache.store_runs("k", 9, self._values(9, 12))  # gap at 8
        assert cache.run_prefix("k", 100) == self._values(0, 8)
        assert cache.run_prefix("k", 5) == self._values(0, 5)
        assert cache.run_prefix("other", 5) == []

    def test_ranges_survive_a_save_load_cycle(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = ResultCache(path)
        cache.store_runs("k", 2, self._values(2, 6))
        cache.save()
        reloaded = ResultCache(path)
        assert reloaded.lookup_runs("k", 2, 6) == self._values(2, 6)
        assert "1 ranges" in reloaded.stats()

    def test_run_range_key_ignores_runs_but_not_engine(self):
        spec = CellSpec(protocol=Dfsa(), n_tags=100, runs=3, seed=1)
        assert spec.range_key() \
            == dataclasses.replace(spec, runs=7).range_key()
        assert spec.range_key() \
            != dataclasses.replace(spec, engine="scalar").range_key()
        assert spec.range_key() != spec.key()


#: One cell result, stored under many same-length keys below: every save of
#: one such cell is the same number of bytes.
_CELL = AggregateResult(protocol="DFSA", n_tags=50, runs=2,
                        throughput_mean=1.25, throughput_std=0.5,
                        empty_mean=3.0, singleton_mean=50.0,
                        collision_mean=4.5, total_slots_mean=57.5,
                        resolved_mean=0.0)


_RUN = RunMetrics(throughput=1.5, empty_slots=3, singleton_slots=50,
                  collision_slots=4, total_slots=57, resolved_from_collision=0)


def _key(index: int) -> str:
    return f"{index:064x}"


def _cache(path, signature="tree-a") -> ResultCache:
    return ResultCache(path, signature=signature)


def _lines(path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestAppendOnlyLog:
    """A save appends only what is new; damage costs a save, never a
    wrong answer."""

    def test_a_save_writes_only_its_new_entries(self, tmp_path):
        """O(new entries) per save: the 200th save of one cell writes as
        many bytes as the 2nd, and leaves the earlier bytes in place."""
        io = Path("/proc/self/io")
        if not io.exists():
            pytest.skip("needs the kernel's per-process write counter")

        def bytes_written() -> int:
            fields = dict(line.split(": ") for line in
                          io.read_text().splitlines())
            return int(fields["wchar"])

        path = tmp_path / "cache.json"
        cache = _cache(path)
        written, before = [], b""
        for index in range(200):
            cache.store(_key(index), _CELL)
            started = bytes_written()
            cache.save()
            written.append(bytes_written() - started)
            after = path.read_bytes()
            assert after.startswith(before)
            before = after
        assert written[1] == written[199] > 0
        assert len(_cache(path)) == 200

    def test_a_clean_file_is_appended_to_not_replaced(self, tmp_path,
                                                      monkeypatch):
        path = tmp_path / "cache.json"
        cache = _cache(path)
        cache.store(_key(0), _CELL)
        cache.save()
        inode = path.stat().st_ino
        replaced = []
        monkeypatch.setattr(os, "replace",
                            lambda *args: replaced.append(args))
        for index in range(1, 4):
            cache.store(_key(index), _CELL)
            cache.save()
        assert replaced == []
        assert path.stat().st_ino == inode
        assert [sorted(line["entries"]) for line in _lines(path)] \
            == [[_key(index)] for index in range(4)]

    def test_a_torn_last_line_costs_only_its_save(self, tmp_path,
                                                  monkeypatch):
        path = tmp_path / "cache.json"
        cache = _cache(path)
        for index in range(2):
            cache.store(_key(index), _CELL)
            cache.save()
        first, second = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(first + second[:len(second) // 2])
        with observe() as observation:
            reloaded = _cache(path)
        assert reloaded.lookup(_key(0)) == _CELL
        assert reloaded.lookup(_key(1)) is None
        assert [e.fields["reason"] for e in observation.events.events
                if e.name == "cache_invalidated"] \
            == ["torn or unparseable line dropped"]
        # The next save repairs the file through a temporary file.
        replace = os.replace
        replaced = []

        def spy(source, target):
            replaced.append(target)
            replace(source, target)

        monkeypatch.setattr(os, "replace", spy)
        reloaded.store(_key(2), _CELL)
        reloaded.save()
        assert replaced == [path]
        assert path.read_bytes().endswith(b"\n")
        assert len(_lines(path)) == 1
        with observe() as observation:
            repaired = _cache(path)
        assert len(repaired) == 2
        assert repaired.lookup(_key(1)) is None
        assert not [e for e in observation.events.events
                    if e.name == "cache_invalidated"]

    def test_another_trees_file_is_replaced_not_appended_to(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({
            "signature": "tree-b",
            "entries": {_key(9): dataclasses.asdict(_CELL)}}) + "\n")
        cache = _cache(path)
        assert len(cache) == 0
        cache.store(_key(0), _CELL)
        cache.save()
        (line,) = _lines(path)
        assert line["signature"] == "tree-a"
        assert list(line["entries"]) == [_key(0)]

    def test_a_failed_rewrite_leaves_the_old_file_whole(self, tmp_path,
                                                        monkeypatch):
        path = tmp_path / "cache.json"
        path.write_text("{ not json")

        def killed(source, target):
            raise OSError("killed mid-save")

        monkeypatch.setattr(os, "replace", killed)
        cache = _cache(path)
        cache.store(_key(0), _CELL)
        cache.save()
        assert path.read_text() == "{ not json"
        assert sorted(tmp_path.iterdir()) == [path]

    def test_another_trees_appended_lines_are_never_served(self, tmp_path):
        path = tmp_path / "cache.json"
        tree_a = _cache(path, "tree-a")
        tree_b = _cache(path, "tree-b")
        tree_a.store(_key(0), _CELL)
        tree_a.save()
        tree_b.store(_key(1), _CELL)
        tree_b.save()  # tree-b's load saw no file: it rewrites
        tree_a.store(_key(2), _CELL)
        tree_a.save()  # tree-a's log is clean: it appends to tree-b's file
        assert [line["signature"] for line in _lines(path)] \
            == ["tree-b", "tree-a"]
        reader_b = _cache(path, "tree-b")
        assert reader_b.lookup(_key(1)) == _CELL
        assert reader_b.lookup(_key(2)) is None
        assert len(_cache(path, "tree-a")) == 0

    def test_two_writers_of_one_tree_both_reload_fully(self, tmp_path):
        path = tmp_path / "cache.json"
        seed = _cache(path)
        seed.store(_key(0), _CELL)
        seed.store_runs("k", 0, TestRunRangeEntries._values(0, 2))
        seed.save()
        first, second = _cache(path), _cache(path)
        first.store(_key(1), _CELL)
        first.save()
        second.store(_key(2), _CELL)
        second.store_runs("k", 2, TestRunRangeEntries._values(2, 5))
        second.save()
        first.store(_key(3), _CELL)
        first.save()
        reloaded = _cache(path)
        assert [reloaded.lookup(_key(index)) for index in range(4)] \
            == [_CELL] * 4
        assert reloaded.run_prefix("k", 10) \
            == TestRunRangeEntries._values(0, 5)
        assert len(_lines(path)) == 4

    @pytest.mark.parametrize("content, reason", [
        (json.dumps({"signature": "tree-b"}) + "\n",
         "signature mismatch (source tree or schema changed)"),
        (json.dumps({"signature": "tree-a",
                     "entries": {_key(0): {"bogus": 1}}}) + "\n",
         "entry shape mismatch"),
        (json.dumps({"signature": "tree-a"}) + "\n{\"signa",
         "torn or unparseable line dropped"),
    ], ids=["signature", "shape", "torn"])
    def test_each_discard_is_an_event_with_its_reason(self, tmp_path,
                                                      content, reason):
        path = tmp_path / "cache.json"
        path.write_text(content)
        with observe() as observation:
            _cache(path)
        (event,) = [e for e in observation.events.events
                    if e.name == "cache_invalidated"]
        assert event.fields == {"path": str(path), "reason": reason}


class TestPackageSignature:
    def test_signature_is_memoized_and_hex(self):
        first = package_signature()
        assert first == package_signature()
        assert len(first) == 64
        int(first, 16)

    def test_default_cache_binds_to_package_signature(self, tmp_path):
        cache = ResultCache(tmp_path / "cache.json")
        assert cache.signature == package_signature()

    def test_signature_covers_the_native_walk_source(self):
        """An edit to the C walk must not keep serving cells cached from
        the old walk."""
        assert native.SOURCE.resolve() in _iter_signature_sources()


class TestBound:
    """At most ``MAX_ENTRIES`` cells plus run ranges, in memory and on
    disk; the least recently used go first."""

    def test_storing_past_the_bound_keeps_memory_and_file_bounded(
            self, tmp_path):
        path = tmp_path / "cache.json"
        cache = _cache(path)
        stored = 3 * MAX_ENTRIES
        for index in range(stored):
            cache.store(_key(index), _CELL)
            if index % 2 == 0:
                cache.store_runs(_key(index), 0, [_RUN])
            if index == 10:
                assert cache.lookup(_key(0)) == _CELL  # a refresh
            if index == 2735:
                # Past the bound: what was stored before the refresh goes
                # first, and the refreshed entry outlives it.
                assert cache.lookup(_key(1)) is None
                assert cache.lookup(_key(0)) == _CELL
            if index % 256 == 255:
                cache.save()
                assert path.stat().st_size <= 2 * _bytes_per_entry(path) \
                    * (2 * MAX_ENTRIES + 256 * 3 // 2)
        cache.save()
        assert len(cache) <= MAX_ENTRIES
        assert cache.lookup(_key(stored - 1)) == _CELL
        assert cache.lookup(_key(0)) is None  # evicted at last
        assert cache.lookup(_key(MAX_ENTRIES)) is None
        grown = path.stat().st_size
        reloaded = _cache(path)
        compacted = path.stat().st_size
        assert len(_lines(path)) == 1
        assert compacted <= grown
        held = _lines(path)[0]
        assert len(held["entries"]) + sum(map(len, held["runs"].values())) \
            <= MAX_ENTRIES
        assert len(reloaded) == len(held["entries"]) > 0
        assert reloaded.lookup(_key(stored - 1)) == _CELL
        assert reloaded.run_prefix(_key(stored - 2), 1) == [_RUN]
        # A second load finds nothing to compact.
        _cache(path)
        assert path.stat().st_size == compacted

    def test_eviction_only_turns_hits_into_misses(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = _cache(path)
        for index in range(MAX_ENTRIES + 8):
            cache.store(_key(index), _CELL)
        hits = [cache.lookup(_key(index))
                for index in range(MAX_ENTRIES + 8)]
        assert set(map(id, hits)) <= {id(None), id(_CELL)}
        assert hits.count(_CELL) == MAX_ENTRIES
        assert hits[:8] == [None] * 8


def _bytes_per_entry(path) -> int:
    held = _lines(path)[-1]
    count = len(held["entries"]) + sum(map(len, held["runs"].values()))
    return len(path.read_text().splitlines()[-1]) // max(count, 1) + 1
