"""Structured event stream: declared schemas, validation, JSONL sink.

Every telemetry event the simulator can emit is declared up front in
:data:`EVENT_SCHEMA` -- event name to :class:`EventSpec` (field name to
field kind).  Emission validates against the spec, so an event stream that
reached a sink is guaranteed to parse back; the lint engine's
``event-schema`` rule (R9) statically pins every ``emit("name", ...)`` call
site in the source tree to this registry, so the schema and its emitters
cannot drift apart.

The on-disk form is JSONL: one event per line as
``{"seq": n, "event": name, <field>: <value>...}``.  ``seq`` is positional:
an event's place in its owning :class:`EventStream`, counting forgotten
events too.  When the parallel executor folds worker streams back into the
parent, in deterministic chunk order, the folded events take the next
positions, so a serial run and a parallel run produce the same ordering.

Hot per-frame telemetry may arrive as a *frame block*
(:meth:`EventStream.record_frames`): one tuple per FCAT frame or
termination probe, type-checked once per batch and expanded into ordinary
events only when :attr:`EventStream.events` is read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

__all__ = [
    "EVENT_SCHEMA",
    "Event",
    "EventSpec",
    "EventStream",
    "frame_fields",
    "read_jsonl",
    "validate_event",
    "write_jsonl",
]

#: Field kinds an event schema may declare, mapped to accepting types.
#: ``bool`` precedes the numeric kinds because it subclasses ``int``.
_KINDS: dict[str, tuple[type, ...]] = {
    "str": (str,),
    "bool": (bool,),
    "int": (int,),
    "float": (int, float),
    "mapping": (dict,),
}


@dataclass(frozen=True)
class EventSpec:
    """Declared shape of one event: ``((field, kind), ...)``."""

    fields: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        for name, kind in self.fields:
            if kind not in _KINDS:
                raise ValueError(f"unknown field kind {kind!r} for {name!r}")

    @property
    def field_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.fields)

    @cached_property
    def _names(self) -> frozenset[str]:
        return frozenset(self.field_names)

    @cached_property
    def _checks(self) -> tuple[tuple[str, str, tuple[type, ...], bool], ...]:
        """``(field, kind, accepted types, rejects bool)`` per field."""
        return tuple((name, kind, _KINDS[kind], kind in ("int", "float"))
                     for name, kind in self.fields)


def _spec(**fields: str) -> EventSpec:
    return EventSpec(fields=tuple(fields.items()))


#: The full event vocabulary.  Keys must be string literals: the R9 lint
#: rule reads this dict statically to check every ``emit()`` call site.
EVENT_SCHEMA: dict[str, EventSpec] = {
    # One complete reading session (emitted by the shared protocol hook).
    "session": _spec(protocol="str", n_tags="int", n_read="int",
                     empty_slots="int", singleton_slots="int",
                     collision_slots="int", resolved_from_collision="int",
                     frames="int", duration_s="float"),
    # One FCAT frame: the slot-outcome mix at the advertised probability.
    "frame": _spec(protocol="str", frame_index="int",
                   report_probability="float", empty="int", singleton="int",
                   collision="int"),
    # The embedded estimator after a frame: belief vs ground truth.
    "estimator_update": _spec(protocol="str", frame_index="int",
                              estimate="float", actual_remaining="int",
                              error="float"),
    # IDs recovered by resolving ANC collision records in one slot.
    "anc_resolution": _spec(protocol="str", slot_index="int",
                            resolved="int"),
    # The p = 1 probe that decides session termination.
    "termination_probe": _spec(protocol="str", slot_index="int",
                               outcome="str"),
    # One sweep cell finished (computed or served from the result cache).
    "cell_done": _spec(key="str", protocol="str", n_tags="int", runs="int",
                       seed="int", elapsed_s="float", cached="bool"),
    # Result-cache accounting; ``key`` is the cell's content address.
    "cache_hit": _spec(key="str"),
    "cache_miss": _spec(key="str"),
    "cache_invalidated": _spec(path="str", reason="str"),
    # Executor mechanics: pool spin-up and per-chunk worker accounting.
    "pool_start": _spec(workers="int", tasks="int", start_method="str"),
    "chunk_done": _spec(cell_index="int", chunk_index="int", runs="int",
                        duration_s="float", queue_wait_s="float"),
    # Adaptive planner: one batch of one cell folded into its Welford
    # state.  ``rel_half_width`` is -1.0 while undefined (fewer than two
    # runs), never infinity -- JSON sinks must round-trip.
    "planner_batch": _spec(protocol="str", n_tags="int", seed="int",
                           batch_index="int", start="int", runs="int",
                           cached="bool", mean="float",
                           rel_half_width="float"),
    # Adaptive planner: a cell closed.  ``reason`` is ``"precision"``,
    # ``"max_runs"`` or ``"budget"``.
    "planner_stop": _spec(protocol="str", n_tags="int", seed="int",
                          reason="str", runs_used="int", nominal_runs="int",
                          simulated_runs="int", cached_runs="int",
                          mean="float", rel_half_width="float"),
    # Inventory service: one request's records begin (a warm hit, or a
    # cold miss whose collector is being folded in).
    "request_start": _spec(key="str", n_tags="int", zones="int",
                           seed="int"),
    # Inventory service: a request was answered (``cached`` marks the
    # warm path -- response bytes served without touching the executor).
    "request_done": _spec(key="str", elapsed_s="float", cached="bool"),
    # Inventory service: the shard schedule a request compiled to.
    "shard_plan": _spec(key="str", zones="int", phases="int",
                        distinct_cells="int", interfered_zones="int"),
    # Inventory service: one zone's reading session accounted for.
    "shard_done": _spec(key="str", zone="str", n_tags="int", phase="int",
                        frame_size="int", interference_load="float"),
    # Final registry snapshot, appended as the last line of a JSONL sink.
    "metrics_snapshot": _spec(metrics="mapping"),
}


def validate_event(name: str, fields: dict) -> None:
    """Raise ``ValueError`` unless (name, fields) matches the schema."""
    spec = EVENT_SCHEMA.get(name)
    if spec is None:
        raise ValueError(f"undeclared event {name!r}; add it to EVENT_SCHEMA")
    if fields.keys() != spec._names:
        declared = spec.field_names
        missing = set(declared) - set(fields)
        extra = set(fields) - set(declared)
        raise ValueError(
            f"event {name!r} fields mismatch: missing {sorted(missing)}, "
            f"unexpected {sorted(extra)}")
    for field_name, kind, accepted, numeric in spec._checks:
        value = fields[field_name]
        if numeric and value.__class__ is bool:
            raise ValueError(
                f"event {name!r} field {field_name!r} must be {kind}, "
                "got bool")
        if not isinstance(value, accepted):
            raise ValueError(
                f"event {name!r} field {field_name!r} must be {kind}, "
                f"got {type(value).__name__}")


def frame_fields(protocol: str, row: tuple) -> tuple[dict, dict]:
    """The ``frame`` and ``estimator_update`` fields of one frame row.

    ``row`` is ``(frame_index, report_probability, empty, singleton,
    collision, estimate, actual_remaining)``.  The one definition of both
    events' fields: the scalar engine emits them eagerly, a frame block
    builds them when read.
    """
    frame_index, p, empty, singleton, collision, estimate, actual = row
    return ({"protocol": protocol, "frame_index": frame_index,
             "report_probability": p, "empty": empty,
             "singleton": singleton, "collision": collision},
            {"protocol": protocol, "frame_index": frame_index,
             "estimate": estimate, "actual_remaining": actual,
             "error": estimate - actual})


#: Row widths of a frame block: a frame row stands for a ``frame`` and an
#: ``estimator_update`` event, a ``(slot_index, outcome)`` probe row for
#: one ``termination_probe``.
_FRAME_ROW = 7
_PROBE_ROW = 2


def _row_events(protocol: str, row: tuple) -> tuple[tuple[str, dict], ...]:
    """The ``(name, fields)`` events one frame-block row stands for."""
    if len(row) == _PROBE_ROW:
        return (("termination_probe", {"protocol": protocol,
                                       "slot_index": row[0],
                                       "outcome": row[1]}),)
    if len(row) != _FRAME_ROW:
        raise ValueError(f"frame block row must have {_FRAME_ROW} (frame) "
                         f"or {_PROBE_ROW} (probe) values, got {len(row)}")
    frame, update = frame_fields(protocol, row)
    return ("frame", frame), ("estimator_update", update)


class _FrameBlock(NamedTuple):
    """One batch's frame rows, standing for ``size`` events in row order."""

    protocol: str
    rows: list[tuple]
    size: int

    def records(self) -> Iterator[tuple[str, dict]]:
        protocol = self.protocol
        for row in self.rows:
            yield from _row_events(protocol, row)

    def drop(self, count: int) -> list:
        """The records left once the first ``count`` (< size) events go.

        A cut between a frame row's two events keeps that row's
        ``estimator_update`` as an ordinary record.
        """
        rows = self.rows
        index = 0
        left = count
        while left:
            width = 1 if len(rows[index]) == _PROBE_ROW else 2
            if left < width:
                break
            left -= width
            index += 1
        kept: list = []
        if left:
            kept.append(("estimator_update",
                         frame_fields(self.protocol, rows[index])[1]))
            index += 1
        if index < len(rows):
            kept.append(_FrameBlock(self.protocol, rows[index:],
                                    self.size - count - len(kept)))
        return kept


class Event(NamedTuple):
    """One emitted event, already validated against its spec.

    A tuple of untracked values, so the cyclic garbage collector stops
    scanning retained events after its first pass over them.
    """

    seq: int
    name: str
    fields: dict

    def to_json(self) -> dict:
        return {"seq": self.seq, "event": self.name, **self.fields}


class EventStream:
    """Schema-validated event log with positional sequencing.

    The stream keeps ``(name, fields)`` records and frame blocks, and
    builds each :class:`Event` when :attr:`events` is read, with ``seq`` =
    its position counted from the first event ever recorded.
    :meth:`forget` drops the oldest retained events so a long-running owner
    can bound memory; ``seq`` numbers and :meth:`counts` cover every event
    ever recorded, forgotten ones too.  :meth:`fold` appends another
    stream's records in one ``list.extend``, so folding a worker's or a
    request's collector costs no per-event work beyond copying a
    reference.  Every count -- ``len()``, ``seq``, :meth:`counts`,
    :meth:`forget` -- is in events, however they were recorded.
    """

    def __init__(self) -> None:
        self._records: list[tuple[str, dict] | _FrameBlock] = []
        self._tally: dict[str, int] = {}
        #: Events dropped by :meth:`forget`; the first retained ``seq``.
        self._forgotten = 0
        #: Retained events (a frame block stands for several).
        self._length = 0

    def _record(self, name: str, fields: dict) -> None:
        self._records.append((name, fields))
        self._tally[name] = self._tally.get(name, 0) + 1
        self._length += 1

    def emit(self, name: str, **fields) -> None:
        self.append(name, fields)

    def append(self, name: str, fields: dict) -> None:
        """:meth:`emit` for a ready-made ``fields`` dict (kept, not copied)."""
        validate_event(name, fields)
        self._record(name, fields)

    def record_frames(self, protocol: str, rows: list[tuple]) -> None:
        """Record a batch's per-frame telemetry as one frame block.

        Each row stands for the events :func:`frame_fields` (a
        ``(frame_index, p, empty, singleton, collision, estimate,
        actual)`` frame row) or a ``(slot_index, outcome)`` probe row
        defines, in row order.  :func:`validate_event` only looks at
        types, so one row per distinct row type signature is validated,
        in first-appearance order: a bad row raises as its ``emit`` would,
        and nothing of the block is recorded.  ``rows`` is kept, not
        copied.
        """
        if not rows:
            return
        signatures = {tuple(map(type, row)): row for row in rows}
        for row in signatures.values():
            for name, fields in _row_events(protocol, row):
                validate_event(name, fields)
        probes = [len(row) for row in rows].count(_PROBE_ROW)
        frames = len(rows) - probes
        tally = self._tally
        if frames:
            for name in ("frame", "estimator_update"):
                tally[name] = tally.get(name, 0) + frames
        if probes:
            tally["termination_probe"] = \
                tally.get("termination_probe", 0) + probes
        size = 2 * frames + probes
        self._records.append(_FrameBlock(protocol, rows, size))
        self._length += size

    def extend(self, events: Iterable[Event]) -> None:
        """Append events (say, read back from a sink) at the next positions.

        They were validated when emitted or read, so they are not checked
        again.
        """
        for event in events:
            self._record(event.name, event.fields)

    def fold(self, other: EventStream) -> None:
        """Append ``other``'s retained records and add its lifetime counts.

        The records were validated when ``other`` recorded them.  ``fields``
        dicts and frame blocks are shared, not copied: a folded-in
        collector is done.
        """
        self._records.extend(other._records)
        self._length += other._length
        for name, count in other._tally.items():
            self._tally[name] = self._tally.get(name, 0) + count

    def forget(self, count: int) -> None:
        """Drop the ``count`` oldest retained events (tallies are kept).

        A cut inside a frame block splits it; blocks are never mutated, so
        a :meth:`snapshot` sharing one is unaffected.
        """
        count = min(count, self._length)
        records = self._records
        index = dropped = 0
        while dropped < count:
            record = records[index]
            size = record.size if record.__class__ is _FrameBlock else 1
            if dropped + size > count:
                records[index:index + 1] = record.drop(count - dropped)
                break
            dropped += size
            index += 1
        del records[:index]
        self._forgotten += count
        self._length -= count

    def snapshot(self) -> EventStream:
        """A detached copy: the retained records, ``seq`` offset and tallies.

        One list copy; the copy's :attr:`events` can then be built without
        holding whatever lock guards this stream.
        """
        copy = EventStream()
        copy._records = self._records.copy()
        copy._tally = dict(self._tally)
        copy._forgotten = self._forgotten
        copy._length = self._length
        return copy

    def _iter_records(self) -> Iterator[tuple[str, dict]]:
        for record in self._records:
            if record.__class__ is _FrameBlock:
                yield from record.records()
            else:
                yield record

    @property
    def events(self) -> list[Event]:
        """The retained events, oldest first (frame blocks expanded)."""
        return [Event(seq, name, fields) for seq, (name, fields)
                in enumerate(self._iter_records(), start=self._forgotten)]

    def __len__(self) -> int:
        return self._length

    def counts(self) -> dict[str, int]:
        """Events recorded per name over the stream's life, sorted by name."""
        return dict(sorted(self._tally.items()))


def write_jsonl(path: Path | str, stream: EventStream) -> int:
    """Write the stream to ``path`` as JSONL; returns the line count."""
    lines = [json.dumps(event.to_json(), sort_keys=True)
             for event in stream.events]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""),
                          encoding="utf-8")
    return len(lines)


def read_jsonl(path: Path | str) -> list[Event]:
    """Parse and re-validate a JSONL sink written by :func:`write_jsonl`."""
    events: list[Event] = []
    for lineno, line in enumerate(
            Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(f"{path}:{lineno}: not JSON: {error}") from None
        if not isinstance(payload, dict) or "event" not in payload \
                or "seq" not in payload:
            raise ValueError(f"{path}:{lineno}: missing seq/event keys")
        name = payload["event"]
        fields = {key: value for key, value in payload.items()
                  if key not in ("seq", "event")}
        try:
            validate_event(name, fields)
        except ValueError as error:
            raise ValueError(f"{path}:{lineno}: {error}") from None
        events.append(Event(seq=payload["seq"], name=name, fields=fields))
    return events
