"""Facility shard scheduler: zones, phases and per-zone channels.

The scheduler turns one facility-scale inventory request into per-zone
reading sessions the executor can fan out:

1. **Partition** the tag population across ``zones`` readers arranged in a
   ring (each reader also hears a ``overlap`` fraction of its successor's
   tags -- the count-level mirror of
   :meth:`repro.inventory.zones.Warehouse.random_layout` with ``wrap=True``,
   so facility plans and ID-level warehouses share one geometry).
2. **Phase** the ring's overlap pairs with the shared planner
   :func:`repro.inventory.scheduling.color_phases` (an edge wherever two
   coverages intersect, exactly as for ID-level warehouses); when the
   request caps ``max_phases`` below the chromatic number, color ``c``
   folds onto ``c % max_phases``, which keeps the earlier (larger) color
   classes intact and runs the folded zones concurrently with their
   neighbours.
3. **Derive channels**: each zone's residual overlap with concurrently
   active zones becomes a load in ``[0, 1]`` that the
   :class:`~repro.service.interference.InterferenceModel` maps onto the
   per-slot :class:`~repro.sim.channel.ChannelModel`.
4. **Frame**: every zone reader runs FCAT at the paper's frame length
   (the :class:`~repro.core.fcat.FcatConfig` default, ``f = 30``).  In
   FCAT every tag reports in every slot with ``p = ω/N̂``; the frame only
   sets how often ``N̂`` and ``p`` are refreshed, and throughput is flat
   for ``f >= 10`` (Fig. 6), so the frame does not scale with the zone.

Everything here is closed-form or combinatorial -- no RNG draws -- so a
shard plan is a pure function of the request and the service's
byte-identical response contract holds by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.fcat import FcatConfig
from repro.inventory.scheduling import color_phases
from repro.service.interference import DEFAULT_INTERFERENCE, InterferenceModel
from repro.sim.channel import ChannelModel

__all__ = [
    "ShardPlan",
    "ZoneShard",
    "plan_shards",
]


@dataclass(frozen=True)
class ZoneShard:
    """One reader's slice of the facility, ready to simulate."""

    name: str
    index: int
    #: Tags this zone's reader must identify (exclusive + borrowed).
    n_tags: int
    #: Tags heard exclusively by this zone.
    exclusive_tags: int
    #: Phase the reader is active in (phases run sequentially).
    phase: int
    #: Fraction of coverage shared with concurrently active zones.
    interference_load: float
    #: FCAT frame length of this zone's reader (the paper's ``f``).
    frame_size: int
    #: The per-slot error process this zone reads through.
    channel: ChannelModel


@dataclass(frozen=True)
class ShardPlan:
    """The full facility schedule one request compiles to."""

    facility_tags: int
    zones: tuple[ZoneShard, ...]
    n_phases: int
    overlap: float
    capability: int
    #: Shared-tag counts per overlapping zone pair ``(i, j)``, i < j.
    overlap_pairs: tuple[tuple[int, int, int], ...]

    @property
    def interfered_zones(self) -> int:
        """Zones reading through a non-zero interference load."""
        return len([zone for zone in self.zones
                    if zone.interference_load > 0.0])

    def phase_members(self) -> list[list[ZoneShard]]:
        """Zones grouped by phase, phases in execution order."""
        members: list[list[ZoneShard]] = [[] for _ in range(self.n_phases)]
        for zone in self.zones:
            members[zone.phase].append(zone)
        return members

    def summary(self) -> str:
        return (f"shard plan: {self.facility_tags} tags over "
                f"{len(self.zones)} zones in {self.n_phases} phase(s), "
                f"{self.interfered_zones} zone(s) interfered")


def plan_shards(n_tags: int, zones: int, capability: int = 2,
                overlap: float = 0.15, max_phases: int | None = None,
                base_channel: ChannelModel | None = None,
                interference: InterferenceModel = DEFAULT_INTERFERENCE,
                ) -> ShardPlan:
    """Compile a facility into a deterministic per-zone reading schedule.

    ``capability`` is the ANC λ of the zones' FCAT readers, recorded on
    the plan; ``overlap`` is the fraction of each zone's successor it
    also hears; ``max_phases`` caps the schedule length, trading
    wall-clock for interference the channel model absorbs.
    """
    if n_tags < 1:
        raise ValueError("n_tags must be >= 1")
    if zones < 1:
        raise ValueError("zones must be >= 1")
    if not 0.0 <= overlap < 1.0:
        raise ValueError("overlap must be in [0, 1)")
    if n_tags < zones:
        raise ValueError(f"{zones} zones need at least {zones} tags")
    if max_phases is not None and max_phases < 1:
        raise ValueError("max_phases must be >= 1")
    base = base_channel if base_channel is not None else ChannelModel()

    # Near-equal exclusive split, remainder spread over the head zones.
    exclusive = [n_tags // zones + (1 if i < n_tags % zones else 0)
                 for i in range(zones)]
    # Ring borrow: zone i also hears the head of zone (i+1) % zones.
    borrowed = [0] * zones
    if zones > 1 and overlap > 0.0:
        borrowed = [int(exclusive[(i + 1) % zones] * overlap)
                    for i in range(zones)]
    covered = [exclusive[i] + borrowed[i] for i in range(zones)]

    pairs = tuple((i, (i + 1) % zones, borrowed[i])
                  for i in range(zones) if borrowed[i] > 0)
    phases = color_phases(zones, [(left, right) for left, right, _ in pairs])
    if max_phases is not None:
        phases = [phase % max_phases for phase in phases]
    n_phases = max(phases) + 1

    # Residual overlap: tags shared with zones active in the same phase.
    # A ring pair joins two distinct zones, so one pass over the pairs
    # credits both ends.
    shared = [0] * zones
    for left, right, count in pairs:
        if phases[left] == phases[right]:
            shared[left] += count
            shared[right] += count
    # Zones differ in a handful of shapes: each distinct load's channel,
    # and each distinct shape's fields, are built once.
    channels: dict[float, ChannelModel] = {}
    shapes: dict[tuple, dict] = {}
    frame_size = FcatConfig.frame_size
    shards = []
    for index in range(zones):
        load = min(shared[index] / covered[index], 1.0) \
            if covered[index] else 0.0
        signature = (covered[index], exclusive[index], phases[index], load)
        shape = shapes.get(signature)
        if shape is None:
            channel = channels.get(load)
            if channel is None:
                channel = channels[load] = \
                    interference.channel_for_load(load, base)
            shape = shapes[signature] = {
                "n_tags": covered[index], "exclusive_tags": exclusive[index],
                "phase": phases[index], "interference_load": load,
                "frame_size": frame_size, "channel": channel}
        shards.append(ZoneShard(name=f"zone-{index:03d}", index=index,
                                **shape))
    return ShardPlan(facility_tags=n_tags, zones=tuple(shards),
                     n_phases=n_phases, overlap=overlap,
                     capability=capability, overlap_pairs=pairs)
