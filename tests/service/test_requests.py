"""Request schema, content addressing and the canonical response bytes."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fcat import Fcat
from repro.experiments.executor import CellSpec, execute_cells
from repro.service.core import InventoryService
from repro.service.requests import (
    MAX_ERROR_PROB,
    MAX_LAM,
    MAX_N_TAGS,
    MAX_RUNS,
    MAX_ZONES,
    InventoryRequest,
    encode_response,
    render_entry,
    request_from_dict,
)
from repro.sim.channel import ChannelModel


def test_key_is_stable_and_content_addressed():
    a = InventoryRequest(n_tags=1000, zones=8, seed=1)
    b = InventoryRequest(n_tags=1000, zones=8, seed=1)
    assert a.key() == b.key()
    assert len(a.key()) == 64  # sha256 hex


@pytest.mark.parametrize("change", [
    {"n_tags": 1001}, {"zones": 9}, {"seed": 2}, {"runs": 3},
    {"lam": 4}, {"overlap": 0.2}, {"max_phases": 1},
    {"engine": "scalar"}, {"precision": 0.05},
    {"channel": ChannelModel(ack_loss_prob=0.1)},
])
def test_any_field_change_changes_the_key(change):
    base = InventoryRequest(n_tags=1000, zones=8, seed=1)
    varied = InventoryRequest(**{**base.to_dict(), **change,
                                 "channel": change.get("channel",
                                                       base.channel)})
    assert varied.key() != base.key()


def test_dict_round_trip():
    request = InventoryRequest(n_tags=500, zones=4, seed=9, runs=2, lam=3,
                               overlap=0.1, engine="scalar",
                               channel=ChannelModel(ack_loss_prob=0.05))
    assert request_from_dict(request.to_dict()) == request


def test_minimal_request_uses_defaults():
    request = request_from_dict({"n_tags": 100, "zones": 2, "seed": 0})
    assert request.runs == 1
    assert request.lam == 2
    assert request.engine == "kernel"
    assert request.channel == ChannelModel()


@pytest.mark.parametrize("payload, match", [
    ([1, 2], "JSON object"),
    ({"n_tags": 10, "zones": 1}, "missing.*seed"),
    ({"n_tags": 10, "zones": 1, "seed": 0, "frobnicate": 1}, "unknown"),
    ({"n_tags": 10, "zones": 1, "seed": 0, "channel": 3}, "channel"),
    ({"n_tags": 10, "zones": 1, "seed": 0,
      "channel": {"bogus_prob": 0.1}}, "channel knobs"),
    ({"n_tags": "ten", "zones": 1, "seed": 0}, "integer"),
    ({"n_tags": 0, "zones": 1, "seed": 0}, "n_tags"),
    ({"n_tags": 10, "zones": 1, "seed": 0, "lam": 1}, "lam"),
    ({"n_tags": 10, "zones": 1, "seed": 0, "engine": "quantum"}, "engine"),
    ({"n_tags": True, "zones": 1, "seed": 0}, "n_tags must be an integer"),
    ({"n_tags": 10, "zones": 1, "seed": 0, "max_phases": 2.5},
     "max_phases must be an integer"),
    ({"n_tags": 10, "zones": 1, "seed": 0, "precision": float("nan")},
     "precision"),
    ({"n_tags": 10, "zones": 1, "seed": 0, "precision": float("inf")},
     "precision"),
    ({"n_tags": 3, "zones": 4, "seed": 0}, "zones"),
    ({"n_tags": 10, "zones": 1, "seed": -1}, "seed"),
    ({"n_tags": 10, "zones": 1, "seed": 0, "lam": 200}, "lam"),
    ({"n_tags": 10, "zones": 1, "seed": 0, "lam": MAX_LAM + 1}, "lam"),
    ({"n_tags": MAX_N_TAGS + 1, "zones": 1, "seed": 0}, "n_tags"),
    ({"n_tags": 10 * MAX_ZONES, "zones": MAX_ZONES + 1, "seed": 0},
     "zones"),
    ({"n_tags": 10, "zones": 1, "seed": 0, "runs": MAX_RUNS + 1}, "runs"),
    ({"n_tags": 10, "zones": 1, "seed": 0,
      "channel": {"ack_loss_prob": 1.0}}, "ack_loss_prob"),
    ({"n_tags": 10, "zones": 1, "seed": 0,
      "channel": {"singleton_corrupt_prob": 1.0}}, "singleton_corrupt_prob"),
    ({"n_tags": 10, "zones": 1, "seed": 0,
      "channel": {"ack_loss_prob": MAX_ERROR_PROB + 0.01}}, "ack_loss_prob"),
    # bool subclasses int: `true`/`false` are not numbers here either.
    ({"n_tags": 10, "zones": 1, "seed": 0, "overlap": False},
     "overlap must be a number"),
    ({"n_tags": 10, "zones": 1, "seed": 0, "overlap": True},
     "overlap must be a number"),
    ({"n_tags": 10, "zones": 1, "seed": 0, "precision": True},
     "precision must be a number"),
    ({"n_tags": 10, "zones": 1, "seed": 0,
      "channel": {"ack_loss_prob": False}}, "ack_loss_prob must be a number"),
    ({"n_tags": 10, "zones": 1, "seed": 0,
      "channel": {"capture_prob": True}}, "capture_prob must be a number"),
])
def test_junk_requests_rejected(payload, match):
    with pytest.raises(ValueError, match=match):
        request_from_dict(payload)


def test_caps_admit_benchmark_and_demo_traffic():
    # The largest perfbench request (a doubled variant) and serve_demo's.
    for n_tags, zones, lam in ((2_100_000, 48, 4), (1_048_576, 20, 2)):
        request_from_dict({"n_tags": n_tags, "zones": zones, "seed": 0,
                           "lam": lam})


#: The worst channel a zone can read through under the request caps:
#: ambient probabilities at ``MAX_ERROR_PROB`` composed with the
#: interference model's clamp, and every collision record unusable.
_WORST_CHANNEL = ChannelModel(singleton_corrupt_prob=0.75, ack_loss_prob=0.6,
                              collision_unusable_prob=1.0)


@pytest.mark.parametrize("engine", ["kernel", "scalar"])
def test_max_lam_sessions_finish_on_the_worst_channel(engine):
    """``MAX_LAM`` is pinned at the top of the overrun sweep.

    At f = 30 the sweep (n = 1-79 step 3, 10 seeds, both engines)
    finished every session up to λ = 9 on a perfect and on the worst
    composite channel, and overran at λ = 10-11 on the composite one.
    This replays the composite half at ``MAX_LAM`` with 2 seeds.
    """
    assert MAX_LAM == 9
    for n_tags in range(1, 80, 3):
        protocol = Fcat(lam=MAX_LAM, initial_estimate=float(n_tags))
        (cell,) = execute_cells([CellSpec(
            protocol=protocol, n_tags=n_tags, runs=2, seed=n_tags,
            channel=_WORST_CHANNEL, engine=engine)])
        assert cell.throughput_mean > 0.0
    with pytest.raises(ValueError, match="lam"):
        InventoryRequest(n_tags=10, zones=1, seed=0, lam=MAX_LAM + 1)


_INTS = st.integers(-2, 24) | st.integers(-(2 ** 70), 2 ** 70)
_JSON = st.recursive(
    st.none() | st.booleans() | _INTS | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4)
_KNOBS = ("singleton_corrupt_prob", "ack_loss_prob",
          "collision_unusable_prob", "capture_prob")
# Small well-formed requests (channel knobs over all of [0, 1]) ...
_WELL_FORMED = st.fixed_dictionaries(
    {"n_tags": st.integers(1, 24), "zones": st.integers(1, 4),
     "seed": st.integers(0, 2 ** 70)},
    optional={
        "runs": st.integers(1, 4),
        "lam": st.integers(2, MAX_LAM),
        "overlap": st.floats(0.0, 0.99),
        "max_phases": st.none() | st.integers(1, 4),
        "engine": st.sampled_from(["kernel", "scalar"]),
        "precision": st.none() | st.floats(0.01, 1.0),
        "channel": st.fixed_dictionaries(
            {}, optional={knob: st.floats(0.0, 1.0) for knob in _KNOBS}),
    })
# ... with up to two fields (or an unknown one) overwritten by any JSON.
_OVERRIDES = st.dictionaries(
    st.sampled_from(["n_tags", "zones", "seed", "runs", "lam", "overlap",
                     "max_phases", "engine", "precision", "channel",
                     "junk"]),
    _JSON, max_size=2)
_REQUESTS = st.builds(lambda base, override: {**base, **override},
                      _WELL_FORMED, _OVERRIDES) | _JSON


@settings(max_examples=150, deadline=None)
@given(payload=_REQUESTS)
def test_any_json_request_is_rejected_or_served(payload):
    """A body either fails to parse with ValueError (a 400) or, at small
    facility sizes, is served without an exception (never a 500)."""
    try:
        request = request_from_dict(payload)
    except ValueError:
        return
    if request.n_tags <= 24:
        InventoryService().handle(request)


def test_encode_response_is_canonical():
    payload = {"b": 1, "a": {"z": 0.5, "y": [1, 2]}}
    first = encode_response(payload)
    second = encode_response({"a": {"y": [1, 2], "z": 0.5}, "b": 1})
    assert first == second
    assert first.endswith(b"\n")
    assert json.loads(first) == payload


def test_spliced_zones_render_as_the_payload_would():
    zones = [{"name": f"zone-{index:03d}", "n_tags": index,
              "interference_load": 0.1 * index} for index in range(3)]
    payload = {"schema": "s", "request_key": "k", "plan": {"zones": 3}}
    assert encode_response(payload, [render_entry(zone) for zone in zones]) \
        == encode_response({**payload, "zones": zones})
    with pytest.raises(ValueError):
        encode_response({**payload, "zzz": 1}, [])
