"""SCAT -- the Slotted Collision-Aware Tag identification protocol (section IV).

The unframed precursor of FCAT.  Every slot carries its own advertisement
(slot index + report probability), resolved tags are announced by their full
96-bit IDs, and the reader is assumed to know the tag count ``N`` from a
pre-estimation step (the paper cites Kodialam-Nandagopal; section V removes
this assumption).  SCAT exists in the paper to establish the collision-aware
mechanics and the optimal report probability; FCAT then strips its overheads.
Reproducing it lets the benchmarks show *why* the framed version wins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.air.timing import ICODE_TIMING, TimingModel
from repro.core.collision import RecordStore
from repro.core.optimal import optimal_omega
from repro.estimate.kodialam import estimate_tag_count, probe_time_seconds
from repro.obs import scope
from repro.sim.active_set import ActiveSet
from repro.sim.base import TagReadingProtocol
from repro.sim.channel import PERFECT_CHANNEL, ChannelModel
from repro.sim.population import TagPopulation
from repro.sim.result import ReadingResult


@dataclass(frozen=True)
class ScatConfig:
    """Tunable parameters of a SCAT session."""

    lam: int = 2
    omega: float | None = None
    #: Probe with p = 1 after this many consecutive empty slots (section IV-A).
    empty_streak_for_probe: int = 5
    max_report_probability: float = 0.5
    #: ``None``: the reader is handed the true N (the paper's assumption).
    #: A float: run the Kodialam-Nandagopal pre-step to this coefficient of
    #: variation and pay for its probe frames in the session time.
    pre_estimate_cv: float | None = None
    max_slots_factor: float = 200.0

    def __post_init__(self) -> None:
        if self.lam < 2:
            raise ValueError("lam must be >= 2")
        if self.omega is not None and self.omega <= 0:
            raise ValueError("omega must be positive")
        if self.empty_streak_for_probe < 1:
            raise ValueError("empty_streak_for_probe must be >= 1")
        if not 0.0 < self.max_report_probability <= 1.0:
            raise ValueError("max_report_probability must be in (0, 1]")
        if self.pre_estimate_cv is not None \
                and not 0.0 < self.pre_estimate_cv < 1.0:
            raise ValueError("pre_estimate_cv must be in (0, 1) or None")

    @property
    def effective_omega(self) -> float:
        return self.omega if self.omega is not None else optimal_omega(self.lam)


class Scat(TagReadingProtocol):
    """Slotted Collision-Aware Tag identification (paper section IV)."""

    def __init__(self, lam: int = 2, omega: float | None = None, *,
                 empty_streak_for_probe: int = 5,
                 max_report_probability: float = 0.5,
                 pre_estimate_cv: float | None = None,
                 max_slots_factor: float = 200.0) -> None:
        self.config = ScatConfig(
            lam=lam, omega=omega,
            empty_streak_for_probe=empty_streak_for_probe,
            max_report_probability=max_report_probability,
            pre_estimate_cv=pre_estimate_cv,
            max_slots_factor=max_slots_factor)
        self.name = f"SCAT-{lam}"

    def read_all(self, population: TagPopulation, rng: np.random.Generator,
                 channel: ChannelModel = PERFECT_CHANNEL,
                 timing: TimingModel = ICODE_TIMING) -> ReadingResult:
        config = self.config
        omega = config.effective_omega
        active = ActiveSet(population.ids)
        store = RecordStore(config.lam)
        result = ReadingResult(protocol=self.name, n_tags=len(population),
                               n_read=0, timing=timing)
        # Section IV-C: N comes from a pre-step; the reader then tracks
        # N_i = N - n_i as tags are identified.  Default is the paper's
        # oracle; with pre_estimate_cv set, the Kodialam-Nandagopal probe
        # frames are actually run and paid for.
        if config.pre_estimate_cv is None:
            total: float = len(population)
        else:
            pre = estimate_tag_count(len(population), rng,
                                     target_cv=config.pre_estimate_cv)
            total = pre.estimate
            result.presession_s = probe_time_seconds(
                pre.total_probe_slots, pre.frames_used, timing)
            result.extra["pre_estimate"] = pre.estimate
            result.extra["pre_probe_slots"] = pre.total_probe_slots
        max_slots = int(config.max_slots_factor * max(len(population), 1)
                        + 1000)
        obs = scope.active()  # one None test per resolution while disabled
        slot_index = 0
        empty_streak = 0
        # If the pre-step under-counted, the reader may believe only a tag
        # or two remain while hundreds jam every slot -- and a jammed slot
        # yields no singletons to recover with.  A long collision streak is
        # (at the nominal load) astronomically unlikely, so treat it as
        # evidence the belief is low and double it.
        collision_streak = 0
        correction = 0.0

        def ack(tag: int) -> None:
            if channel.ack_received(rng):
                active.discard(tag)

        def apply_resolutions(resolved: list[tuple[int, int]]) -> None:
            for tag, _slot in resolved:
                result.n_read += 1
                result.resolved_from_collision += 1
                # SCAT announces the recovered ID itself (96 bits) so the tag
                # knows to stop (section IV-A; V-A improves on this).
                result.id_announcements += 1
                ack(tag)
            if obs is not None and resolved:
                obs.emit("anc_resolution", protocol=self.name,
                         slot_index=slot, resolved=len(resolved))

        # SCAT's slot walk feeds collision outcomes back into the next
        # slot's split decision: serial by protocol design; batching
        # happens across sessions, not within one.  This loop is the
        # *scalar reference*: ``repro.kernels.scat`` replays the same
        # belief process with block-at-once draws on draw-free channels,
        # so what remains hot here is the impaired-channel and
        # pre-estimation configurations the kernel routes back.
        while True:
            if slot_index >= max_slots:
                raise RuntimeError(
                    f"SCAT session exceeded {max_slots} slots -- "
                    "termination logic is stuck")
            probing = empty_streak >= config.empty_streak_for_probe
            if probing:
                p = 1.0
                empty_streak = 0
            else:
                remaining = max(total - store.learned_count, 1.0) + correction
                p = min(omega / remaining, config.max_report_probability)
            result.advertisements += 1  # per-slot advertisement <i, p_i>
            slot = slot_index
            slot_index += 1
            transmitters = (list(active) if p >= 1.0
                            else active.sample_binomial(p, rng))
            k = len(transmitters)
            result.tag_transmissions += k
            if k == 0:
                result.empty_slots += 1
                collision_streak = 0
                correction *= 0.9  # empties are evidence the belief is high
                if probing:
                    break  # silence at p = 1: every ID is collected
                empty_streak += 1
                continue
            empty_streak = 0
            captured_slot = k >= 2 and channel.captured(rng)
            if captured_slot:
                # Capture effect (extension): the strongest collider decodes;
                # the residual becomes a (k-1)-record, as in FCAT.
                captured = transmitters[int(rng.integers(0, k))]
                rest = [tag for tag in transmitters if tag != captured]
                result.singleton_slots += 1
                if not store.is_learned(captured):
                    result.n_read += 1
                resolved = store.learn(captured)
                ack(captured)
                apply_resolutions(resolved)
                if len(rest) >= 2:
                    _, more = store.add_record(slot, rest,
                                               channel.record_usable(rng))
                    apply_resolutions(more)
                elif channel.record_usable(rng) \
                        and not store.is_learned(rest[0]):
                    cascade = store.learn(rest[0])
                    apply_resolutions([(rest[0], slot)] + cascade)
            elif k == 1 and channel.singleton_ok(rng):
                result.singleton_slots += 1
                collision_streak = 0
                tag = transmitters[0]
                if not store.is_learned(tag):
                    result.n_read += 1
                resolved = store.learn(tag)
                ack(tag)
                apply_resolutions(resolved)
            else:
                result.collision_slots += 1
                collision_streak += 1
                if collision_streak >= 15 and not probing:
                    # Fifteen collisions in a row happen with probability
                    # ~2e-6 at the nominal load: the believed count must be
                    # low (an under-counting pre-step).  Double the belief;
                    # the decay on empty slots heals any overshoot.
                    believed = max(total - store.learned_count, 1.0) \
                        + correction
                    correction += max(believed, 10.0)
                    collision_streak = 0
                if k >= 2:
                    usable = channel.record_usable(rng)
                    _, resolved = store.add_record(slot, transmitters, usable)
                    apply_resolutions(resolved)
            if captured_slot:
                collision_streak = 0
        return result
