"""Event schema validation and the JSONL round-trip."""

from __future__ import annotations

import json

import pytest

from repro.obs.events import (
    EVENT_SCHEMA,
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


class TestEventStream:
    def test_emit_sequences_and_validates(self):
        stream = EventStream()
        stream.emit("cache_hit", key="a")
        stream.emit("cache_miss", key="b")
        assert [event.seq for event in stream.events] == [0, 1]
        assert stream.counts() == {"cache_hit": 1, "cache_miss": 1}
        with pytest.raises(ValueError):
            stream.emit("cache_hit")

    def test_extend_resequences(self):
        worker = EventStream()
        worker.emit("cache_hit", key="w")
        parent = EventStream()
        parent.emit("cache_miss", key="p")
        parent.extend(worker.events)
        assert [(event.seq, event.name) for event in parent.events] == [
            (0, "cache_miss"), (1, "cache_hit")]

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


#: Frame-block rows as the FCAT kernel records them: frame rows
#: ``(frame_index, p, empty, singleton, collision, estimate, actual)`` and
#: termination-probe rows ``(slot_index, outcome)``.
ROWS = [(0, 0.5, 10, 12, 8, 40.0, 38), (0, 0.5, 9, 14, 7, 41.5, 37),
        (1, 0.625, 11, 9, 10, 30.5, 30), (93, "collision"),
        (2, 1.0, 30, 0, 0, 1.0, 0), (124, "empty")]


def _emit_eagerly(stream: EventStream, protocol: str, rows) -> None:
    """What a frame block stands for, emitted one event at a time."""
    for row in rows:
        if len(row) == 2:
            stream.emit("termination_probe", protocol=protocol,
                        slot_index=row[0], outcome=row[1])
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
        block.record_frames("FCAT-3", list(rows))
        _emit_eagerly(eager, "FCAT-3", rows)
    return block, eager


def _seen(stream: EventStream) -> list:
    return [(event.seq, event.name, event.fields) for event in stream.events]


class TestFrameBlock:
    def test_expands_to_the_eager_events(self):
        block, eager = _block_and_eager(ROWS, ROWS[:2])
        assert _seen(block) == _seen(eager)
        assert len(block) == len(eager) == 2 + (2 * 4 + 2) + 2 * 2
        assert block.counts() == eager.counts()

    @pytest.mark.parametrize("bad_row", [
        (True, 0.5, 10, 12, 8, 40.0, 38),
        (0, "0.5", 10, 12, 8, 40.0, 38),
        (0, 0.5, 10, 12, 8, 40.0, 38.0),
        (93, 1),
    ], ids=["bool-index", "str-probability", "float-actual", "int-outcome"])
    def test_a_bad_row_raises_as_emit_would(self, bad_row):
        rows = ROWS[:3] + [bad_row] + ROWS[3:]
        with pytest.raises(ValueError) as eager_error:
            _emit_eagerly(EventStream(), "FCAT-3", rows)
        stream = EventStream()
        with pytest.raises(ValueError) as block_error:
            stream.record_frames("FCAT-3", rows)
        assert str(block_error.value) == str(eager_error.value)
        assert len(stream) == 0 and stream.counts() == {}
        with pytest.raises(ValueError, match="7 .* or 2 "):
            stream.record_frames("FCAT-3", [(0, 0.5, 10)])

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
