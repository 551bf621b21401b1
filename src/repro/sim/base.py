"""The protocol interface every reading protocol implements.

A protocol reads a whole :class:`~repro.sim.population.TagPopulation` and
returns a :class:`~repro.sim.result.ReadingResult`.  Protocols are stateless
configuration objects: all per-session state lives inside ``read_all`` so the
same instance can run many independent sessions (the paper averages 100 runs
per data point).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.air.timing import ICODE_TIMING, TimingModel
from repro.obs import scope
from repro.sim.channel import PERFECT_CHANNEL, ChannelModel
from repro.sim.population import TagPopulation
from repro.sim.result import AggregateResult, ReadingResult, aggregate


class TagReadingProtocol(ABC):
    """A complete tag-identification protocol (reader plus tag behaviour)."""

    #: Human-readable protocol name used in reports (e.g. ``"FCAT-2"``).
    name: str = "protocol"

    @abstractmethod
    def read_all(self, population: TagPopulation, rng: np.random.Generator,
                 channel: ChannelModel = PERFECT_CHANNEL,
                 timing: TimingModel = ICODE_TIMING) -> ReadingResult:
        """Run one complete reading session and return its accounting."""

    def observe_session(self, result: ReadingResult) -> None:
        """Shared observability hook: account one finished session.

        The runners (:func:`run_many`,
        :func:`repro.experiments.runner.run_single`) call this after every
        ``read_all``, so every protocol -- FCAT, SCAT and all the baselines
        -- reports the same session-level telemetry without per-protocol
        instrumentation.  A no-op unless a ``repro.obs`` scope is active.
        """
        obs = scope.active()
        if obs is None:
            return
        duration_s = result.duration_s
        obs.count_many((("sessions", 1.0),
                        ("slots.empty", result.empty_slots),
                        ("slots.singleton", result.singleton_slots),
                        ("slots.collision", result.collision_slots),
                        ("tags.read", result.n_read),
                        ("tags.resolved_from_collision",
                         result.resolved_from_collision)))
        obs.observe_value("session.duration_s", duration_s)
        obs.observe_value("session.slots", result.total_slots)
        obs.emit("session", protocol=result.protocol, n_tags=result.n_tags,
                 n_read=result.n_read, empty_slots=result.empty_slots,
                 singleton_slots=result.singleton_slots,
                 collision_slots=result.collision_slots,
                 resolved_from_collision=result.resolved_from_collision,
                 frames=result.frames, duration_s=duration_s)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


def run_many(protocol: TagReadingProtocol, population: TagPopulation,
             runs: int, seed: int,
             channel: ChannelModel = PERFECT_CHANNEL,
             timing: TimingModel = ICODE_TIMING) -> AggregateResult:
    """Average ``runs`` independent sessions over one fixed population.

    Each run gets an independent child generator spawned from ``seed`` so the
    whole sweep is reproducible yet runs are uncorrelated.  This is the
    scalar engine's loop; the experiment stack draws a fresh population per
    run and batches supported configurations through
    :func:`repro.kernels.engine.run_batch`.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    results: list[ReadingResult] = []
    for child in np.random.SeedSequence(seed).spawn(runs):
        rng = np.random.default_rng(child)
        result = protocol.read_all(population, rng, channel=channel,
                                   timing=timing)
        if not result.complete and channel == PERFECT_CHANNEL:
            raise RuntimeError(
                f"{protocol.name} failed to read all tags on a perfect "
                f"channel ({result.n_read}/{result.n_tags})")
        protocol.observe_session(result)
        results.append(result)
    return aggregate(results)
