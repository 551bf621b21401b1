"""Request schema, content addressing and the canonical response bytes."""

from __future__ import annotations

import json

import pytest

from repro.service.requests import (
    InventoryRequest,
    encode_response,
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
])
def test_junk_requests_rejected(payload, match):
    with pytest.raises(ValueError, match=match):
        request_from_dict(payload)


def test_encode_response_is_canonical():
    payload = {"b": 1, "a": {"z": 0.5, "y": [1, 2]}}
    first = encode_response(payload)
    second = encode_response({"a": {"y": [1, 2], "z": 0.5}, "b": 1})
    assert first == second
    assert first.endswith(b"\n")
    assert json.loads(first) == payload
