"""The facility shard scheduler."""

from __future__ import annotations

import pytest

from repro.core.fcat import Fcat
from repro.service.interference import InterferenceModel
from repro.inventory.scheduling import color_phases
from repro.service.sharding import ZoneShape, ZoneShard, plan_shards
from repro.sim.channel import ChannelModel


# -- plan_shards -----------------------------------------------------------

def test_exclusive_split_conserves_population():
    plan = plan_shards(10_007, 16, overlap=0.2)
    assert sum(zone.exclusive_tags for zone in plan.zones) == 10_007
    assert plan.facility_tags == 10_007


def test_ring_overlap_pairs_close_the_ring():
    plan = plan_shards(16_000, 16, overlap=0.2)
    assert len(plan.overlap_pairs) == 16
    assert (15, 0, plan.overlap_pairs[-1][2]) == plan.overlap_pairs[-1]
    for left, right, count in plan.overlap_pairs:
        assert right == (left + 1) % 16
        assert count > 0


def test_even_ring_two_phases_no_interference():
    plan = plan_shards(8_000, 16, overlap=0.2)
    assert plan.n_phases == 2
    assert plan.interfered_zones == 0
    # Neighbouring zones never share a phase on an even ring.
    phases = [zone.phase for zone in plan.zones]
    for index in range(16):
        assert phases[index] != phases[(index + 1) % 16]


def test_odd_ring_needs_a_third_phase():
    plan = plan_shards(8_500, 17, overlap=0.2)
    assert plan.n_phases == 3
    assert plan.interfered_zones == 0


def test_capped_phases_fold_into_interference():
    free = plan_shards(8_000, 16, overlap=0.2)
    capped = plan_shards(8_000, 16, overlap=0.2, max_phases=1)
    assert capped.n_phases == 1
    assert capped.interfered_zones == 16
    base = ChannelModel()
    for zone in capped.zones:
        assert zone.interference_load > 0.0
        assert zone.channel != base
        assert zone.channel.singleton_corrupt_prob > 0.0
    for zone in free.zones:
        assert zone.channel == base


def test_zero_overlap_is_one_phase_and_clean_channels():
    plan = plan_shards(5_000, 16, overlap=0.0)
    assert plan.n_phases == 1
    assert plan.overlap_pairs == ()
    assert all(zone.n_tags == zone.exclusive_tags for zone in plan.zones)


def test_frame_sizes_are_the_fcat_default():
    """Every zone reads at the paper's frame, whatever its size or λ."""
    for n_tags, capability in ((10_000, 4), (1_048_576, 2), (17, 3)):
        plan = plan_shards(n_tags, 16, capability=capability, overlap=0.1)
        assert {zone.frame_size for zone in plan.zones} \
            == {Fcat().config.frame_size} == {30}


def test_plan_is_deterministic():
    a = plan_shards(9_999, 17, capability=3, overlap=0.13, max_phases=2)
    b = plan_shards(9_999, 17, capability=3, overlap=0.13, max_phases=2)
    assert a == b


def test_interference_model_threads_through():
    strong = InterferenceModel(singleton_corrupt_coeff=2.0, cap=0.9)
    plan = plan_shards(8_000, 16, overlap=0.2, max_phases=1,
                       interference=strong)
    weak = plan_shards(8_000, 16, overlap=0.2, max_phases=1)
    for loud, quiet in zip(plan.zones, weak.zones):
        assert loud.channel.singleton_corrupt_prob \
            > quiet.channel.singleton_corrupt_prob


def test_plan_validates_inputs():
    with pytest.raises(ValueError, match="n_tags"):
        plan_shards(0, 4)
    with pytest.raises(ValueError, match="zones"):
        plan_shards(100, 0)
    with pytest.raises(ValueError, match="overlap"):
        plan_shards(100, 4, overlap=1.0)
    with pytest.raises(ValueError, match="zones need"):
        plan_shards(3, 4)
    with pytest.raises(ValueError, match="max_phases"):
        plan_shards(100, 4, max_phases=0)


@pytest.mark.parametrize("overlap", [0.1, 0.15, 0.2])
def test_ring_phases_match_the_closed_form(overlap):
    """With every ring borrow non-zero the shared first-fit planner gives
    the ring's closed form: alternate 0/1, the odd seam gets 2, then fold.
    """
    for zones in range(1, 65):
        plan_free = plan_shards(1000 * zones, zones, overlap=overlap)
        assert all(count > 0 for _, _, count in plan_free.overlap_pairs)
        ring = [index % 2 for index in range(zones)]
        if zones == 1:
            ring = [0]
        elif zones % 2 == 1:
            ring[-1] = 2
        for max_phases in (None, 1, 2, 3):
            expected = ring if max_phases is None \
                else [color % max_phases for color in ring]
            plan = plan_shards(1000 * zones, zones, overlap=overlap,
                               max_phases=max_phases)
            assert [zone.phase for zone in plan.zones] == expected
            assert plan.n_phases == max(expected) + 1


def test_phase_members_partition_the_zones():
    plan = plan_shards(9_000, 17, overlap=0.2)
    members = plan.phase_members()
    assert len(members) == plan.n_phases
    flattened = [zone for phase in members for zone in phase]
    assert sorted(zone.index for zone in flattened) == list(range(17))
    assert "17 zones" in plan.summary()


def _reference_plan(n_tags, zones, overlap, max_phases, base, interference):
    """The per-zone scan: each zone's residual overlap summed over every
    ring pair, one channel derived per zone, every shard constructed."""
    exclusive = [n_tags // zones + (1 if i < n_tags % zones else 0)
                 for i in range(zones)]
    borrowed = [0] * zones
    if zones > 1 and overlap > 0.0:
        borrowed = [int(exclusive[(i + 1) % zones] * overlap)
                    for i in range(zones)]
    covered = [exclusive[i] + borrowed[i] for i in range(zones)]
    pairs = [(i, (i + 1) % zones, borrowed[i])
             for i in range(zones) if borrowed[i] > 0]
    phases = color_phases(zones, [(left, right) for left, right, _ in pairs])
    if max_phases is not None:
        phases = [phase % max_phases for phase in phases]
    shards = []
    for index in range(zones):
        shared = 0
        for left, right, count in pairs:
            if left == index and phases[right] == phases[index]:
                shared += count
            elif right == index and phases[left] == phases[index]:
                shared += count
        load = min(shared / covered[index], 1.0) if covered[index] else 0.0
        shards.append(ZoneShard(
            name=f"zone-{index:03d}", index=index, n_tags=covered[index],
            exclusive_tags=exclusive[index], phase=phases[index],
            interference_load=load, frame_size=30,
            channel=interference.channel_for_load(
                load, base if base is not None else ChannelModel())))
    return shards


@pytest.mark.parametrize("max_phases", [None, 1, 2, 3])
@pytest.mark.parametrize("base", [None, ChannelModel(ack_loss_prob=0),
                                  ChannelModel(singleton_corrupt_prob=0.1)],
                         ids=["none", "int-zero", "corrupt"])
def test_the_plan_matches_the_per_zone_scan(max_phases, base):
    """Zones built once per shape equal the per-zone construction, field
    by field and in each field's rendering (``0`` stays ``0``)."""
    interference = InterferenceModel()
    for n_tags in (7, 1_001, 65_536):
        for zones in (1, 2, 3, 5, 16, 48):
            for overlap in (0.0, 0.15, 0.99):
                if zones > n_tags:
                    continue
                plan = plan_shards(n_tags, zones, 3, overlap, max_phases,
                                   base, interference)
                expected = _reference_plan(n_tags, zones, overlap,
                                           max_phases, base, interference)
                assert list(plan.zones) == expected
                assert [repr(zone) for zone in plan.zones] \
                    == [repr(zone) for zone in expected]


@pytest.mark.parametrize("max_phases", [None, 1, 2])
def test_the_plan_holds_each_zone_shape_once(max_phases):
    """``shapes`` are distinct, in order of their first zone, and each
    zone's shard is its shape plus its name and index; a ring of any
    size has a handful of them."""
    for n_tags, zones, overlap in ((1_001, 6, 0.15), (65_536, 17, 0.2),
                                   (256 * 4096 + 3, 256, 0.15),
                                   (5_000, 16, 0.0)):
        plan = plan_shards(n_tags, zones, 3, overlap, max_phases)
        assert len(set(plan.shapes)) == len(plan.shapes) <= 6
        assert len(plan.zone_shapes) == zones
        first = [plan.zone_shapes.index(number)
                 for number in range(len(plan.shapes))]
        assert first == sorted(first)
        for zone, number in zip(plan.zones, plan.zone_shapes):
            assert isinstance(plan.shapes[number], ZoneShape)
            assert ZoneShard(zone.name, zone.index,
                             **vars(plan.shapes[number])) == zone
        assert plan.interfered_zones == sum(
            zone.interference_load > 0.0 for zone in plan.zones)
        assert f"{zones} zones" in plan.summary()
