"""Event schema validation and the JSONL round-trip."""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro.obs.events import (
    EVENT_SCHEMA,
    FRAME_ROW,
    EventStream,
    frame_fields,
    read_jsonl,
    validate_event,
    write_jsonl,
)


class TestValidateEvent:
    def test_undeclared_name_raises(self):
        with pytest.raises(ValueError, match="undeclared event"):
            validate_event("sesion", {})

    def test_missing_and_extra_fields_raise(self):
        with pytest.raises(ValueError, match="missing"):
            validate_event("cache_hit", {})
        with pytest.raises(ValueError, match="unexpected"):
            validate_event("cache_hit", {"key": "k", "extra": 1})

    def test_kind_mismatch_raises(self):
        with pytest.raises(ValueError, match="must be str"):
            validate_event("cache_hit", {"key": 42})

    def test_bool_is_not_an_int(self):
        fields = {"protocol": "SCAT-2", "slot_index": True, "resolved": 1}
        with pytest.raises(ValueError, match="got bool"):
            validate_event("anc_resolution", fields)

    def test_int_is_accepted_where_float_declared(self):
        validate_event("cache_invalidated", {"path": "p", "reason": "r"})
        validate_event("chunk_done", {"cell_index": 0, "chunk_index": 0,
                                      "runs": 2, "duration_s": 1,
                                      "queue_wait_s": 0})

    def test_every_declared_kind_is_known(self):
        from repro.obs.events import _KINDS
        for spec in EVENT_SCHEMA.values():
            for _, kind in spec.fields:
                assert kind in _KINDS


class TestAppendAll:
    """``append_all`` checks every dict's keys, and the values of each
    distinct tuple of value types, before it records any of them."""

    @staticmethod
    def _done(zone="zone-000", **changes):
        fields = {"key": "k", "zone": zone, "n_tags": 10, "phase": 0,
                  "frame_size": 30, "interference_load": 0.0}
        return {**fields, **changes}

    def test_a_bad_dict_after_good_ones_raises_and_records_nothing(self):
        good = [self._done(f"zone-{i:03d}") for i in range(3)]
        cases = [
            (self._done(phase=True), "'phase' must be int, got bool"),
            (self._done(n_tags=1.5), "'n_tags' must be int, got float"),
            (self._done(zone=7), "'zone' must be str, got int"),
            ({**self._done(), "extra": 1}, "unexpected \\['extra'\\]"),
            ({k: v for k, v in self._done().items() if k != "phase"},
             "missing \\['phase'\\]"),
        ]
        for bad, message in cases:
            stream = EventStream()
            with pytest.raises(ValueError, match=message):
                stream.append_all("shard_done", good + [bad] + good)
            assert len(stream) == 0 and stream.counts() == {}

    def test_the_first_bad_dict_names_the_error(self):
        first = self._done(phase="0")
        second = self._done(n_tags="10")
        with pytest.raises(ValueError, match="'phase' must be int"):
            EventStream().append_all("shard_done", [first, second])
        with pytest.raises(ValueError, match="'n_tags' must be int"):
            EventStream().append_all("shard_done", [second, first])

    def test_key_order_and_value_types_may_vary(self):
        stream = EventStream()
        shuffled = dict(reversed(list(self._done("zone-001").items())))
        stream.append_all("shard_done", [
            self._done(), shuffled, self._done(interference_load=1)])
        assert [event.fields["zone"] for event in stream.events] \
            == ["zone-000", "zone-001", "zone-000"]
        assert stream.counts() == {"shard_done": 3}

    def test_one_field_events_are_checked_too(self):
        stream = EventStream()
        stream.append_all("cache_hit", [{"key": "a"}, {"key": "b"}])
        with pytest.raises(ValueError, match="must be str"):
            stream.append_all("cache_hit", [{"key": "c"}, {"key": 3}])
        assert [event.fields["key"] for event in stream.events] == ["a", "b"]


class TestEventStream:
    def test_emit_sequences_and_validates(self):
        stream = EventStream()
        stream.emit("cache_hit", key="a")
        stream.emit("cache_miss", key="b")
        assert [event.seq for event in stream.events] == [0, 1]
        assert stream.counts() == {"cache_hit": 1, "cache_miss": 1}
        with pytest.raises(ValueError):
            stream.emit("cache_hit")

    def test_forget_keeps_lifetime_counts_and_sequence(self):
        stream = EventStream()
        for key in "abc":
            stream.emit("cache_hit", key=key)
        stream.forget(2)
        stream.emit("cache_miss", key="d")
        assert [(event.seq, event.fields["key"])
                for event in stream.events] == [(2, "c"), (3, "d")]
        assert len(stream) == 2
        assert stream.counts() == {"cache_hit": 3, "cache_miss": 1}

    def test_snapshot_is_a_detached_copy(self):
        stream = EventStream()
        for key in "abc":
            stream.emit("cache_hit", key=key)
        stream.forget(1)
        copy = stream.snapshot()
        stream.emit("cache_miss", key="d")
        stream.forget(1)
        assert [(event.seq, event.fields["key"])
                for event in copy.events] == [(1, "b"), (2, "c")]
        assert copy.counts() == {"cache_hit": 3}
        assert len(copy) == 2

    def test_fold_keeps_sequence_and_counts_across_forget(self, tmp_path):
        """A fold lands at the next positions, even after a forget, and
        adds the folded stream's lifetime counts; the result round-trips
        through a JSONL sink."""
        parent = EventStream()
        for key in "abc":
            parent.emit("cache_hit", key=key)
        parent.forget(2)
        request = EventStream()
        request.emit("cache_miss", key="d")
        request.emit("cache_hit", key="e")
        parent.fold(request)
        parent.emit("cache_miss", key="f")
        assert [(event.seq, event.fields["key"])
                for event in parent.events] == [
            (2, "c"), (3, "d"), (4, "e"), (5, "f")]
        assert parent.counts() == {"cache_hit": 4, "cache_miss": 2}
        assert len(parent) == 4
        path = tmp_path / "folded.jsonl"
        assert write_jsonl(path, parent) == 4
        assert [(e.seq, e.name, e.fields) for e in read_jsonl(path)] == \
            [(e.seq, e.name, e.fields) for e in parent.events]


#: Frame-block rows as the FCAT kernel records them, in the
#: ``FRAME_ROW`` layout ``(index, p, empty, singleton, collision,
#: estimate, actual)``: frame rows, and termination-probe rows marked by
#: ``actual`` = -1 with the outcome's code in ``empty``.
ROWS = [(0, 0.5, 10, 12, 8, 40.0, 38), (0, 0.5, 9, 14, 7, 41.5, 37),
        (1, 0.625, 11, 9, 10, 30.5, 30), (93, 0.0, 2, 0, 0, 0.0, -1),
        (2, 1.0, 30, 0, 0, 1.0, 0), (124, 0.0, 0, 0, 0, 0.0, -1)]

#: A probe row's outcome by its code.
OUTCOMES = ("empty", "singleton", "collision")


def _emit_eagerly(stream: EventStream, protocol: str, rows) -> None:
    """What a frame block stands for, emitted one event at a time."""
    for row in rows:
        if row[6] < 0:
            stream.emit("termination_probe", protocol=protocol,
                        slot_index=row[0], outcome=OUTCOMES[row[2]])
        else:
            frame, update = frame_fields(protocol, row)
            stream.emit("frame", **frame)
            stream.emit("estimator_update", **update)


def _block_and_eager(*blocks) -> tuple[EventStream, EventStream]:
    """The same events as frame blocks and as eager emits, each block
    framed by a ``cache_hit``."""
    block, eager = EventStream(), EventStream()
    for rows in blocks:
        for stream in (block, eager):
            stream.emit("cache_hit", key="k")
        block.record_frames("FCAT-3", np.array(rows, FRAME_ROW))
        _emit_eagerly(eager, "FCAT-3", rows)
    return block, eager


def _seen(stream: EventStream) -> list:
    return [(event.seq, event.name, event.fields) for event in stream.events]


def _retyped(field: str, kind) -> np.ndarray:
    """ROWS with one column of another type."""
    return np.array(ROWS, [(name, kind if name == field else FRAME_ROW[name])
                           for name in FRAME_ROW.names])


#: Bad blocks, and whether the ``emit`` of their rows would raise the same
#: error (only a column of the wrong type has an eager counterpart).
BAD_BLOCKS = {
    "bool-index": (lambda: _retyped("index", np.bool_), True),
    "str-probability": (lambda: _retyped("p", "U8"), True),
    "float-actual": (lambda: _retyped("actual", np.float64), True),
    "missing-field": (lambda: np.array(
        [row[:5] + row[6:] for row in ROWS],
        [(name, FRAME_ROW[name]) for name in FRAME_ROW.names
         if name != "estimate"]), False),
    "outcome-code-3": (lambda: np.array(
        ROWS[:3] + [(93, 0.0, 3, 0, 0, 0.0, -1)] + ROWS[4:], FRAME_ROW),
        False),
}


class TestFrameBlock:
    def test_expands_to_the_eager_events(self):
        block, eager = _block_and_eager(ROWS, ROWS[:2])
        assert _seen(block) == _seen(eager)
        assert len(block) == len(eager) == 2 + (2 * 4 + 2) + 2 * 2
        assert block.counts() == eager.counts()
        # Python scalars, as the eager emits hold: a reader sees no numpy.
        for _, _, fields in _seen(block):
            for value in fields.values():
                assert type(value) in (str, int, float), fields

    @pytest.mark.parametrize("bad_row", sorted(BAD_BLOCKS))
    def test_a_bad_row_raises_as_emit_would(self, bad_row):
        """A bad block raises ``ValueError`` at record time and records
        nothing; a column of the wrong type raises as the ``emit`` of its
        first row would."""
        build, eager_counterpart = BAD_BLOCKS[bad_row]
        rows = build()
        stream = EventStream()
        with pytest.raises(ValueError) as block_error:
            stream.record_frames("FCAT-3", rows)
        assert len(stream) == 0 and stream.counts() == {}
        assert stream.events == []
        if eager_counterpart:
            with pytest.raises(ValueError) as eager_error:
                _emit_eagerly(EventStream(), "FCAT-3", rows.tolist())
            assert str(block_error.value) == str(eager_error.value)

    def test_forget_cuts_anywhere_like_eager_events(self):
        """Every cut -- before, between and inside blocks, between a frame
        row's two events -- keeps the eager stream's events, ``seq``s,
        length and lifetime counts, and leaves an earlier snapshot
        intact."""
        total = len(_block_and_eager(ROWS, ROWS)[0])
        for cut in range(total + 2):
            block, eager = _block_and_eager(ROWS, ROWS)
            before = block.snapshot()
            for stream in (block, eager):
                stream.forget(cut)
                stream.forget(1)  # a second cut right after the first
                stream.emit("cache_miss", key="after")
            assert _seen(block) == _seen(eager), cut
            assert len(block) == len(eager), cut
            assert block.counts() == eager.counts()
            assert _seen(before) == _seen(_block_and_eager(ROWS, ROWS)[1])

    def test_fields_of_reads_records_without_expanding_blocks(
            self, monkeypatch):
        """One kind's fields come back in stream order, after a forget,
        from the records as kept: no frame block is expanded, and a kind
        a frame row stands for is refused."""
        block, eager = _block_and_eager(ROWS, ROWS)
        for stream in (block, eager):
            stream.emit("cache_hit", key="last")
            stream.forget(1)
        monkeypatch.setattr("repro.obs.events._row_events",
                            lambda *_: pytest.fail("a frame block expanded"))
        assert block.fields_of("cache_hit") \
            == [{"key": "k"}, {"key": "last"}] \
            == [e.fields for e in eager.events if e.name == "cache_hit"]
        assert block.fields_of("cache_miss") == []
        assert block.forgotten == eager.forgotten == 1
        for name in ("frame", "estimator_update", "termination_probe"):
            with pytest.raises(ValueError, match="frame blocks"):
                block.fields_of(name)

    def test_fold_and_jsonl_carry_blocks(self, tmp_path):
        worker, eager_worker = _block_and_eager(ROWS)
        parent, eager_parent = EventStream(), EventStream()
        for stream, other in ((parent, worker), (eager_parent, eager_worker)):
            stream.emit("cache_miss", key="p")
            stream.forget(1)
            stream.fold(other)
            stream.forget(4)
        assert _seen(parent) == _seen(eager_parent)
        assert len(parent) == len(eager_parent)
        path = tmp_path / "blocks.jsonl"
        assert write_jsonl(path, parent) == len(parent)
        assert [(e.seq, e.name, e.fields) for e in read_jsonl(path)] == \
            _seen(eager_parent)

    def test_a_stream_holding_a_block_survives_pickling(self):
        """A worker's collector reaches the parent pickled: a block, also
        one a forget has split, comes back with its events, ``seq``s,
        length and counts."""
        worker, eager = _block_and_eager(ROWS, ROWS)
        for stream in (worker, eager):
            stream.forget(4)  # inside the first block
        copy = pickle.loads(pickle.dumps(worker))
        assert _seen(copy) == _seen(eager)
        assert len(copy) == len(eager)
        assert copy.counts() == eager.counts()
        parent = EventStream()
        parent.fold(copy)
        assert _seen(parent) == [(seq - 4, name, fields)
                                 for seq, name, fields in _seen(eager)]


class TestJsonlRoundTrip:
    def test_write_then_read_preserves_everything(self, tmp_path):
        stream = EventStream()
        stream.emit("cache_hit", key="abc")
        stream.emit("metrics_snapshot", metrics={"counters": {"x": 1.0}})
        path = tmp_path / "metrics.jsonl"
        assert write_jsonl(path, stream) == 2
        events = read_jsonl(path)
        assert [(e.seq, e.name, e.fields) for e in events] == \
            [(e.seq, e.name, e.fields) for e in stream.events]

    def test_lines_are_flat_json_objects(self, tmp_path):
        stream = EventStream()
        stream.emit("cache_hit", key="abc")
        path = tmp_path / "metrics.jsonl"
        write_jsonl(path, stream)
        payload = json.loads(path.read_text().splitlines()[0])
        assert payload == {"seq": 0, "event": "cache_hit", "key": "abc"}

    def test_read_rejects_garbage_with_position(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"seq": 0, "event": "cache_hit", "key": "k"}\n'
                        'not json\n')
        with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
            read_jsonl(path)

    def test_read_revalidates_against_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"seq": 0, "event": "cache_hit", "nope": 1}\n')
        with pytest.raises(ValueError, match="fields mismatch"):
            read_jsonl(path)
