"""The ``with observe(...):`` scope that turns telemetry on.

Observability is off by default and costs one ``is None`` test per
instrumentation point.  Entering :func:`observe` installs an
:class:`Observation` -- a metrics registry and an event stream, whose
``cell_done`` events the run manifest is built from -- as the current
collector of the calling thread (a :class:`~contextvars.ContextVar`, so
each thread, and each asyncio task, sees only the collectors it installed);
instrumented code fetches it once via :func:`active` and writes through it.

The scope nests (the executor re-enters it inside worker processes to give
each chunk a private collector it can ship back for the order-independent
parent merge) and always restores the previous collector on exit, even on
error.  Module-level helpers (:func:`emit`, :func:`inc`, :func:`observe_value`,
:func:`set_gauge`) are one-liner conveniences for cold instrumentation
points; hot loops should hold the :class:`Observation` and guard on ``None``
themselves.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Iterable

from repro.obs.events import EventStream
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "Observation",
    "active",
    "emit",
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

    # -- write-through conveniences ---------------------------------------

    def emit(self, name: str, **fields) -> None:
        self.events.append(name, fields)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.metrics.counter(name).inc(amount)

    def count_many(self, amounts: Iterable[tuple[str, float]]) -> None:
        """:meth:`count` each ``(name, amount)`` pair, in order."""
        self.metrics.add_counts(amounts)

    def observe_value(self, name: str, value: float) -> None:
        self.metrics.histogram(name).observe(value)

    def set_gauge(self, name: str, value: float) -> None:
        self.metrics.gauge(name).set(value)

    def merge(self, other: "Observation") -> None:
        """Fold a worker's or a request's observation in.

        Order-independent for metrics; events append in the caller-chosen
        deterministic order, as one bulk :meth:`EventStream.fold`.  A
        folded-in collector is done: its records are shared and its
        instruments taken over (:meth:`MetricsRegistry.absorb`), not
        copied.
        """
        self.metrics.absorb(other.metrics)
        self.events.fold(other.events)


#: The current collector; ``None`` means observability is off.
_current: ContextVar[Observation | None] = ContextVar("repro_obs_current",
                                                      default=None)


def active() -> Observation | None:
    """The installed collector, or ``None`` when observability is off.

    Hot paths call this once (per session / per chunk) and keep the result.
    """
    return _current.get()


class _Scope:
    """The context manager :func:`observe` returns (one ``with`` each)."""

    __slots__ = ("observation", "_token")

    def __init__(self, observation: Observation) -> None:
        self.observation = observation

    def __enter__(self) -> Observation:
        self._token = _current.set(self.observation)
        return self.observation

    def __exit__(self, *exc_info: object) -> None:
        _current.reset(self._token)


def observe(target: Observation | MetricsRegistry | None = None) -> _Scope:
    """Install a collector for the duration of the ``with`` block.

    ``target`` may be a full :class:`Observation`, a bare
    :class:`~repro.obs.metrics.MetricsRegistry` (wrapped into a fresh
    observation, the ``with observe(registry):`` one-liner), or ``None``
    for a fresh observation.  The ``with`` target is the installed
    observation; the previous collector is restored on exit, also when
    the block raises.
    """
    if target is None:
        observation = Observation()
    elif isinstance(target, MetricsRegistry):
        observation = Observation(metrics=target)
    else:
        observation = target
    return _Scope(observation)


# -- module-level one-liners (no-ops while disabled) -----------------------

def emit(name: str, **fields) -> None:
    observation = _current.get()
    if observation is not None:
        observation.events.append(name, fields)


def inc(name: str, amount: float = 1.0) -> None:
    observation = _current.get()
    if observation is not None:
        observation.metrics.counter(name).inc(amount)


def observe_value(name: str, value: float) -> None:
    observation = _current.get()
    if observation is not None:
        observation.metrics.histogram(name).observe(value)


def set_gauge(name: str, value: float) -> None:
    observation = _current.get()
    if observation is not None:
        observation.metrics.gauge(name).set(value)
