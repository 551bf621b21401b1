"""The ``with observe(...):`` scope that turns telemetry on.

Observability is off by default and costs one ``is None`` test per
instrumentation point.  Entering :func:`observe` installs an
:class:`Observation` -- a metrics registry, an event stream and the list of
per-cell timing records the run manifest is built from -- as the process's
current collector; instrumented code fetches it once via :func:`active` and
writes through it.

The scope nests (the executor re-enters it inside worker processes to give
each chunk a private collector it can ship back for the order-independent
parent merge) and always restores the previous collector on exit, even on
error.  Module-level helpers (:func:`emit`, :func:`inc`, :func:`observe_value`,
:func:`set_gauge`) are one-liner conveniences for cold instrumentation
points; hot loops should hold the :class:`Observation` and guard on ``None``
themselves.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.obs.events import Event, EventStream
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "Observation",
    "active",
    "emit",
    "enabled",
    "inc",
    "observe",
    "observe_value",
    "set_gauge",
]


@dataclass
class Observation:
    """Everything one observed run collects."""

    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    events: EventStream = field(default_factory=EventStream)
    #: Per-cell :class:`~repro.obs.manifest.CellRun` records, appended by
    #: the sweep executor, consumed by ``build_manifest``.
    cells: list = field(default_factory=list)

    # -- write-through conveniences ---------------------------------------

    def emit(self, name: str, **fields) -> Event:
        return self.events.append(name, fields)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.metrics.counter(name).inc(amount)

    def observe_value(self, name: str, value: float) -> None:
        self.metrics.histogram(name).observe(value)

    def set_gauge(self, name: str, value: float) -> None:
        self.metrics.gauge(name).set(value)

    def forget(self, events: int, cells: int) -> None:
        """Drop the oldest ``events`` event and ``cells`` cell records.

        Metrics and the stream's lifetime event counts are untouched, so a
        long-running owner can bound its records without losing totals.
        """
        self.events.forget(events)
        del self.cells[:cells]

    def merge(self, other: "Observation") -> None:
        """Fold a worker's observation in (order-independent for metrics;
        events append in the caller-chosen deterministic order)."""
        self.metrics.merge(other.metrics)
        self.events.extend(other.events.events)
        self.cells.extend(other.cells)


#: The process-wide current collector; ``None`` means observability is off.
_current: Observation | None = None


def active() -> Observation | None:
    """The installed collector, or ``None`` when observability is off.

    Hot paths call this once (per session / per chunk) and keep the result.
    """
    return _current


def enabled() -> bool:
    return _current is not None


@contextmanager
def observe(target: Observation | MetricsRegistry | None = None
            ) -> Iterator[Observation]:
    """Install a collector for the duration of the ``with`` block.

    ``target`` may be a full :class:`Observation`, a bare
    :class:`~repro.obs.metrics.MetricsRegistry` (wrapped into a fresh
    observation, the ``with observe(registry):`` one-liner), or ``None``
    for a fresh observation.  Yields the installed observation; the
    previous collector is restored on exit.
    """
    global _current
    if target is None:
        observation = Observation()
    elif isinstance(target, MetricsRegistry):
        observation = Observation(metrics=target)
    else:
        observation = target
    previous = _current
    _current = observation
    try:
        yield observation
    finally:
        _current = previous


# -- module-level one-liners (no-ops while disabled) -----------------------

def emit(name: str, **fields) -> None:
    if _current is not None:
        _current.events.append(name, fields)


def inc(name: str, amount: float = 1.0) -> None:
    if _current is not None:
        _current.metrics.counter(name).inc(amount)


def observe_value(name: str, value: float) -> None:
    if _current is not None:
        _current.metrics.histogram(name).observe(value)


def set_gauge(name: str, value: float) -> None:
    if _current is not None:
        _current.metrics.gauge(name).set(value)
