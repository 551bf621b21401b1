"""FCAT -- the Framed Collision-Aware Tag identification protocol (section V).

The paper's main protocol.  Time is divided into frames of ``f`` slots; the
reader advertises the frame index and report probability once per frame; every
active tag then transmits, in each slot of the frame, with probability
``p_i = omega / N_hat_i``.  Singleton slots yield IDs immediately; collision
slots are recorded and resolved later through analog network coding
(:class:`~repro.core.collision.RecordStore`).  Tags identified by resolving a
collision record are dismissed by broadcasting the 23-bit *slot index* of the
record rather than the 96-bit ID (section V-A, third inefficiency).

The number of still-participating tags is estimated inside the protocol from
each frame's collision-slot count (:class:`~repro.core.estimator.EmbeddedEstimator`),
so no pre-estimation step is needed.  Termination follows section IV-A: after
a fully empty frame the reader probes one slot at ``p = 1``; silence means
every tag has been read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.air.timing import ICODE_TIMING, TimingModel
from repro.core.collision import RecordStore
from repro.core.estimator import EmbeddedEstimator
from repro.core.optimal import optimal_omega
from repro.obs import scope
from repro.obs.events import frame_fields
from repro.sim.active_set import ActiveSet
from repro.sim.base import TagReadingProtocol
from repro.sim.channel import PERFECT_CHANNEL, ChannelModel
from repro.sim.population import TagPopulation
from repro.sim.result import ReadingResult
from repro.sim.trace import SessionTrace, SlotEvent, SlotKind


@dataclass(frozen=True)
class FcatConfig:
    """Tunable parameters of an FCAT session.

    ``lam`` is the ANC capability λ: the largest collision the decoder can
    resolve.  ``omega`` defaults to the optimal load ``(λ!)^{1/λ}`` of section
    IV-C.  ``max_report_probability`` caps ``p_i`` below 1 so that an endgame
    pair of tags cannot deadlock in identical 2-collisions (see DESIGN.md).
    """

    lam: int = 2
    frame_size: int = 30
    omega: float | None = None
    initial_estimate: float = 64.0
    max_report_probability: float = 0.5
    estimator_method: str = "paper"
    estimator_mode: str = "ewma"
    #: Slot statistic the estimator inverts: "collision" (the paper's
    #: choice) or "empty" (capture-robust; see the estimator's docs).
    estimator_source: str = "collision"
    #: Weight of the newest frame in the EWMA estimator mode.
    estimator_ewma_weight: float = 0.6
    #: While bootstrapping (no informative frame seen yet), abort a frame
    #: early after this many consecutive collision slots and double the
    #: estimate right away instead of burning the rest of the frame.  ``None``
    #: disables the shortcut (the paper-literal behaviour).
    bootstrap_abort_after: int | None = None
    #: ZigZag decoding (ref [23]): a repeated 2-collision pair resolves both
    #: constituents jointly.  Off by default (the paper does not use it).
    zigzag: bool = False
    #: Abort (raise) if a session exceeds ``factor * N + 1000`` slots.
    max_slots_factor: float = 200.0

    def __post_init__(self) -> None:
        if self.lam < 2:
            raise ValueError("lam must be >= 2")
        if self.frame_size < 1:
            raise ValueError("frame_size must be >= 1")
        if self.omega is not None and self.omega <= 0:
            raise ValueError("omega must be positive")
        if not 0.0 < self.max_report_probability <= 1.0:
            raise ValueError("max_report_probability must be in (0, 1]")
        if self.bootstrap_abort_after is not None \
                and self.bootstrap_abort_after < 1:
            raise ValueError("bootstrap_abort_after must be >= 1 or None")

    @property
    def effective_omega(self) -> float:
        return self.omega if self.omega is not None else optimal_omega(self.lam)


class Fcat(TagReadingProtocol):
    """Framed Collision-Aware Tag identification (the paper's main protocol)."""

    def __init__(self, lam: int = 2, frame_size: int = 30,
                 omega: float | None = None, *,
                 initial_estimate: float = 64.0,
                 max_report_probability: float = 0.5,
                 estimator_method: str = "paper",
                 estimator_mode: str = "ewma",
                 estimator_source: str = "collision",
                 estimator_ewma_weight: float = 0.6,
                 bootstrap_abort_after: int | None = None,
                 zigzag: bool = False,
                 max_slots_factor: float = 200.0) -> None:
        self.config = FcatConfig(
            lam=lam, frame_size=frame_size, omega=omega,
            initial_estimate=initial_estimate,
            max_report_probability=max_report_probability,
            estimator_method=estimator_method,
            estimator_mode=estimator_mode,
            estimator_source=estimator_source,
            estimator_ewma_weight=estimator_ewma_weight,
            bootstrap_abort_after=bootstrap_abort_after,
            zigzag=zigzag,
            max_slots_factor=max_slots_factor)
        self.name = f"FCAT-{lam}" + ("+zz" if zigzag else "")

    def read_all(self, population: TagPopulation, rng: np.random.Generator,
                 channel: ChannelModel = PERFECT_CHANNEL,
                 timing: TimingModel = ICODE_TIMING,
                 trace: SessionTrace | None = None) -> ReadingResult:
        """Run one session; pass a :class:`SessionTrace` to log every slot."""
        session = _FcatSession(self.name, self.config, population, rng,
                               channel, timing, trace)
        return session.run()


class _FcatSession:
    """State of one FCAT reading session (one reader, one population)."""

    def __init__(self, name: str, config: FcatConfig,
                 population: TagPopulation, rng: np.random.Generator,
                 channel: ChannelModel, timing: TimingModel,
                 trace: SessionTrace | None = None) -> None:
        self.config = config
        self.rng = rng
        self.channel = channel
        self.omega = config.effective_omega
        self.active = ActiveSet(population.ids)
        self.store = RecordStore(config.lam, zigzag=config.zigzag)
        self.estimator = EmbeddedEstimator(
            omega=self.omega, frame_size=config.frame_size,
            initial_guess=config.initial_estimate,
            method=config.estimator_method,
            mode=config.estimator_mode,
            source=config.estimator_source,
            ewma_weight=config.estimator_ewma_weight)
        self.result = ReadingResult(protocol=name, n_tags=len(population),
                                    n_read=0, timing=timing)
        self.slot_index = 0
        self.max_slots = int(config.max_slots_factor * max(len(population), 1)
                             + 1000)
        self.trace = trace
        self._learned_this_slot: list[int] = []
        #: The active observability collector, fetched once per session so
        #: the disabled path costs one ``is None`` test per frame.
        self.obs = scope.active()
        self.name = name

    def run(self) -> ReadingResult:
        # The frame cascade sizes each frame from the previous frame's
        # outcome (paper Sec. IV): serial by protocol design; batching
        # happens across sessions, not within one.  This loop is the
        # *scalar reference*: ``repro.kernels.fcat`` replays the same
        # process frame-at-once, and ``engine="kernel"`` routes the hot
        # BENCH cells there -- what remains here is the bit-pinned
        # golden path and the ZigZag/trace configurations the kernel
        # does not implement.
        while True:
            empty_slots_in_frame = self._run_frame()
            if empty_slots_in_frame == self.config.frame_size:
                if self._termination_probe():
                    break
        if self.config.zigzag:
            self.result.extra["zigzag_decodes"] = self.store.zigzag_decodes
        return self.result

    # -- frame mechanics ---------------------------------------------------

    def _run_frame(self) -> int:
        """Run one frame; returns the number of empty slots observed."""
        identified_at_start = self.store.learned_count
        remaining = self.estimator.remaining()
        p = min(self.omega / remaining, self.config.max_report_probability)
        self.result.advertisements += 1  # pre-frame advertisement
        self.result.frames += 1
        abort_after = self.config.bootstrap_abort_after
        bootstrapping = abort_after is not None and not self.estimator.samples
        n_collision = n_empty = slots_run = 0
        for _ in range(self.config.frame_size):
            slot = self._next_slot()
            transmitters = self.active.sample_binomial(p, self.rng)
            outcome = self._observe(slot, transmitters)
            self._trace_slot(slot, outcome, p)
            slots_run += 1
            if outcome == "empty":
                n_empty += 1
            elif outcome == "collision":
                n_collision += 1
            if bootstrapping and n_collision == slots_run \
                    and n_collision >= abort_after:
                # Still blind and the frame is wall-to-wall collisions: cut
                # it short, double the estimate, and re-advertise.
                self.estimator.update(self.config.frame_size, p,
                                      identified_at_start,
                                      self.store.learned_count, n_empty=0)
                self._observe_frame(p, slots_run, n_empty, n_collision)
                return n_empty
        self.estimator.update(n_collision, p, identified_at_start,
                              self.store.learned_count, n_empty=n_empty)
        self.result.estimate_trace.append(self.estimator.remaining())
        if self.trace is not None:
            self.trace.record_estimate(self.result.frames - 1,
                                       self.estimator.remaining())
        self._observe_frame(p, slots_run, n_empty, n_collision)
        return n_empty

    def _observe_frame(self, p: float, slots_run: int, n_empty: int,
                       n_collision: int) -> None:
        """Telemetry for one finished (or bootstrap-aborted) frame."""
        obs = self.obs
        if obs is None:
            return
        estimate = self.estimator.remaining()
        actual = len(self.active)
        frame, update = frame_fields(self.name, (
            self.result.frames - 1, p, n_empty,
            slots_run - n_empty - n_collision, n_collision, estimate, actual))
        obs.emit("frame", **frame)
        obs.emit("estimator_update", **update)
        obs.observe_value("estimator.rel_error",
                          abs(estimate - actual) / max(actual, 1))

    def _next_slot(self) -> int:
        if self.slot_index >= self.max_slots:
            raise RuntimeError(
                f"FCAT session exceeded {self.max_slots} slots -- "
                "estimator or termination logic is stuck")
        slot = self.slot_index
        self.slot_index += 1
        return slot

    def _observe(self, slot: int, transmitters: list[int]) -> str:
        """Classify one slot and apply the reader's per-slot operations."""
        self._learned_this_slot = []
        k = len(transmitters)
        self.result.tag_transmissions += k
        if k == 0:
            self.result.empty_slots += 1
            return "empty"
        if k == 1 and self.channel.singleton_ok(self.rng):
            self._handle_singleton(transmitters[0])
            return "singleton"
        if k >= 2 and self.channel.captured(self.rng):
            # Capture effect (extension): the strongest collider decodes, so
            # the reader sees a CRC-valid ID and treats the slot as a
            # singleton -- then subtracts the decoded signal and keeps the
            # residual as a (k-1)-collision record (capture + ANC synergy).
            captured = transmitters[int(self.rng.integers(0, k))]
            rest = [tag for tag in transmitters if tag != captured]
            self._handle_singleton(captured)
            if len(rest) >= 2:
                usable = self.channel.record_usable(self.rng)
                _, resolved = self.store.add_record(slot, rest, usable)
                self._apply_resolutions(resolved)
            elif self.channel.record_usable(self.rng) \
                    and not self.store.is_learned(rest[0]):
                # One constituent left in the residual: it decodes outright,
                # exactly like resolving a 2-collision record on the spot.
                cascade = self.store.learn(rest[0])
                self._apply_resolutions([(rest[0], slot)] + cascade)
            return "singleton"
        self.result.collision_slots += 1
        if k >= 2:
            usable = self.channel.record_usable(self.rng)
            _, resolved = self.store.add_record(slot, transmitters, usable)
            self._apply_resolutions(resolved)
        # k == 1 but corrupted: the CRC fails, the reader keeps an opaque
        # record it can never verify; it still counts as a collision slot.
        return "collision"

    def _trace_slot(self, slot: int, outcome: str, p: float,
                    probe: bool = False) -> None:
        if self.trace is None:
            return
        self.trace.record(SlotEvent(
            slot_index=slot,
            frame_index=self.result.frames - 1,
            kind=SlotKind(outcome),
            report_probability=p,
            learned=tuple(self._learned_this_slot),
            probe=probe,
        ))

    def _handle_singleton(self, tag: int) -> None:
        self.result.singleton_slots += 1
        if not self.store.is_learned(tag):
            self.result.n_read += 1
            self._learned_this_slot.append(tag)
        resolved = self.store.learn(tag)
        self._ack(tag)  # positive acknowledgement in this slot's ack segment
        self._apply_resolutions(resolved)

    def _apply_resolutions(self, resolved: list[tuple[int, int]]) -> None:
        """Account for IDs recovered from collision records.

        Each resolved record is announced by its 23-bit slot index in the next
        acknowledgement segment (section V-B); the tag that transmitted in that
        slot recognizes the index and stops participating.
        """
        for tag, _record_slot in resolved:
            self.result.n_read += 1
            self.result.resolved_from_collision += 1
            self.result.index_announcements += 1
            self._learned_this_slot.append(tag)
            self._ack(tag)
        if self.obs is not None and resolved:
            self.obs.emit("anc_resolution", protocol=self.name,
                          slot_index=self.slot_index - 1,
                          resolved=len(resolved))

    def _ack(self, tag: int) -> None:
        if self.channel.ack_received(self.rng):
            self.active.discard(tag)

    # -- termination -------------------------------------------------------

    def _termination_probe(self) -> bool:
        """One ``p = 1`` slot after an all-empty frame (section IV-A).

        Returns True when the probe is silent, i.e. every tag has been read
        and acknowledged.
        """
        self.result.advertisements += 1  # advertise p = 1
        slot = self._next_slot()
        transmitters = list(self.active)
        outcome = self._observe(slot, transmitters)
        self._trace_slot(slot, outcome, 1.0, probe=True)
        if self.obs is not None:
            self.obs.emit("termination_probe", protocol=self.name,
                          slot_index=slot, outcome=outcome)
        if outcome == "empty":
            return True
        if outcome == "collision":
            # The reader cannot count the colliders, but a collision at p = 1
            # proves at least two survivors: pull the estimate back up so the
            # next frames run at a sensible report probability.
            self.estimator.force_at_least(2.0)
        return False
