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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, NamedTuple

__all__ = [
    "EVENT_SCHEMA",
    "Event",
    "EventSpec",
    "EventStream",
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

    The stream keeps ``(name, fields)`` records and builds each
    :class:`Event` when :attr:`events` is read, with ``seq`` = its position
    counted from the first event ever recorded.  :meth:`forget` drops the
    oldest retained records so a long-running owner can bound memory;
    ``seq`` numbers and :meth:`counts` cover every event ever recorded,
    forgotten ones too.  :meth:`fold` appends another stream's records in
    one ``list.extend``, so folding a worker's or a request's collector
    costs no per-event work beyond copying a reference.
    """

    def __init__(self) -> None:
        self._records: list[tuple[str, dict]] = []
        self._tally: dict[str, int] = {}
        #: Records dropped by :meth:`forget`; the first retained ``seq``.
        self._forgotten = 0

    def _record(self, name: str, fields: dict) -> None:
        self._records.append((name, fields))
        self._tally[name] = self._tally.get(name, 0) + 1

    def emit(self, name: str, **fields) -> None:
        self.append(name, fields)

    def append(self, name: str, fields: dict) -> None:
        """:meth:`emit` for a ready-made ``fields`` dict (kept, not copied)."""
        validate_event(name, fields)
        self._record(name, fields)

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
        dicts are shared, not copied: a folded-in collector is done.
        """
        self._records.extend(other._records)
        for name, count in other._tally.items():
            self._tally[name] = self._tally.get(name, 0) + count

    def forget(self, count: int) -> None:
        """Drop the ``count`` oldest retained events (tallies are kept)."""
        count = min(count, len(self._records))
        del self._records[:count]
        self._forgotten += count

    def snapshot(self) -> EventStream:
        """A detached copy: the retained records, ``seq`` offset and tallies.

        One list copy; the copy's :attr:`events` can then be built without
        holding whatever lock guards this stream.
        """
        copy = EventStream()
        copy._records = self._records.copy()
        copy._tally = dict(self._tally)
        copy._forgotten = self._forgotten
        return copy

    @property
    def events(self) -> list[Event]:
        """The retained events, oldest first."""
        first = self._forgotten
        return [Event(first + index, name, fields)
                for index, (name, fields) in enumerate(self._records)]

    def __len__(self) -> int:
        return len(self._records)

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
