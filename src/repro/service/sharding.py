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

A ring of near-equal zones has only a handful of distinct zone shapes
(size, phase, load and channel), so the plan holds each
:class:`ZoneShape` once and, per zone, the index of its shape; the
per-zone :class:`ZoneShard` view is built only when it is read.  The
per-zone work is a few integer passes over the ring.

Everything here is closed-form or combinatorial -- no RNG draws -- so a
shard plan is a pure function of the request and the service's
byte-identical response contract holds by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import add, itemgetter

from repro.core.fcat import FcatConfig
from repro.inventory.scheduling import color_phases
from repro.service.interference import DEFAULT_INTERFERENCE, InterferenceModel
from repro.sim.channel import ChannelModel

__all__ = [
    "ShardPlan",
    "ZoneShape",
    "ZoneShard",
    "plan_shards",
    "zone_name",
]


def zone_name(index: int) -> str:
    """The name of the ring's ``index``-th zone: ``zone-007``."""
    return f"zone-{index:03d}"


@dataclass(frozen=True)
class ZoneShape:
    """What zones of one shape share: everything but name and index."""

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
    """The full facility schedule one request compiles to.

    A ring of near-equal zones has a handful of distinct zone shapes, so
    the plan holds each shape once and, per zone, the index of its shape.
    """

    facility_tags: int
    #: The distinct zone shapes, in order of their first zone.
    shapes: tuple[ZoneShape, ...]
    #: Each zone's index into :attr:`shapes`, in zone order.
    zone_shapes: tuple[int, ...]
    n_phases: int
    overlap: float
    capability: int
    #: ``(i, (i + 1) % zones, shared tags)`` for each zone that borrows
    #: from its ring successor.
    overlap_pairs: tuple[tuple[int, int, int], ...]

    @cached_property
    def zones(self) -> tuple[ZoneShard, ...]:
        """Every zone as a :class:`ZoneShard`, built on first access."""
        shapes = self.shapes
        return tuple(ZoneShard(zone_name(index), index,
                               **vars(shapes[shape]))
                     for index, shape in enumerate(self.zone_shapes))

    @property
    def interfered_zones(self) -> int:
        """Zones reading through a non-zero interference load."""
        interfered = [shape.interference_load > 0.0 for shape in self.shapes]
        return sum(map(interfered.__getitem__, self.zone_shapes))

    def phase_members(self) -> list[list[ZoneShard]]:
        """Zones grouped by phase, phases in execution order."""
        members: list[list[ZoneShard]] = [[] for _ in range(self.n_phases)]
        for zone in self.zones:
            members[zone.phase].append(zone)
        return members

    def summary(self) -> str:
        return (f"shard plan: {self.facility_tags} tags over "
                f"{len(self.zone_shapes)} zones in {self.n_phases} "
                f"phase(s), {self.interfered_zones} zone(s) interfered")


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

    # Near-equal exclusive split, remainder spread over the head zones, so
    # every zone has at least one tag.
    share, remainder = divmod(n_tags, zones)
    exclusive = [share + 1] * remainder + [share] * (zones - remainder)
    # Ring borrow: zone i also hears the head of zone (i+1) % zones.  The
    # split has at most two sizes, so each size's borrow is worked out
    # once.
    successors = [*range(1, zones), 0]
    borrowed = [0] * zones
    if zones > 1 and overlap > 0.0:
        lent = {tags: int(tags * overlap) for tags in {share, share + 1}}
        borrowed = list(map(lent.__getitem__,
                            map(exclusive.__getitem__, successors)))
    covered = list(map(add, exclusive, borrowed))

    pairs = tuple(zip(range(zones), successors, borrowed))
    if 0 in borrowed:
        pairs = tuple([pair for pair in pairs if pair[2] > 0])
    phases = color_phases(zones, map(itemgetter(0, 1), pairs))
    if max_phases is not None:
        phases = [phase % max_phases for phase in phases]
    n_phases = max(phases) + 1

    # Residual overlap: tags shared with zones active in the same phase.
    # Zone i shares its borrow with its successor, and its predecessor's
    # borrow with that predecessor, where the two read in one phase.
    ahead = [count if phase == successor else 0 for count, phase, successor
             in zip(borrowed, phases, map(phases.__getitem__, successors))]
    shared = list(map(add, ahead, ahead[-1:] + ahead[:-1]))

    # Each zone's shape, numbered in order of first appearance.  A zone's
    # load is its shared tags over its heard ones, so it is worked out
    # once per shape.
    signatures = list(zip(covered, exclusive, phases, shared))
    numbers = {signature: number for number, signature
               in enumerate(dict.fromkeys(signatures))}
    channels: dict[float, ChannelModel] = {}
    frame_size = FcatConfig.frame_size
    shapes = []
    for heard, own, phase, tags in numbers:
        load = min(tags / heard, 1.0)
        channel = channels.get(load)
        if channel is None:
            channel = channels[load] = \
                interference.channel_for_load(load, base)
        shapes.append(ZoneShape(n_tags=heard, exclusive_tags=own,
                                phase=phase, interference_load=load,
                                frame_size=frame_size, channel=channel))
    return ShardPlan(facility_tags=n_tags, shapes=tuple(shapes),
                     zone_shapes=tuple(map(numbers.__getitem__, signatures)),
                     n_phases=n_phases, overlap=overlap,
                     capability=capability, overlap_pairs=pairs)
