"""The observed FCAT kernel's telemetry: pinned content, bounded cost.

Under an active observation a kernel batch records its per-frame
telemetry as one frame block, expanded into ``frame``,
``estimator_update`` and ``termination_probe`` events only when read.
These tests pin what a reader sees to digests recorded before the block
existed, when every frame emitted two validated events eagerly, and gate
the enabled path's per-frame cost deterministically: stream records and
schema validations must not grow with the frame count.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.fcat import Fcat
from repro.kernels.fcat import batched_fcat_sessions
from repro.obs import events as events_module
from repro.obs.events import EventStream
from repro.obs.scope import observe
from repro.sim.channel import PERFECT_CHANNEL, ChannelModel

IMPAIRED = ChannelModel(0.1, 0.1, 0.1, 0.1)


def _observed_payload(protocol: Fcat, n_tags: int, seeds, channel,
                      ) -> dict:
    """Everything a reader of one observed batch sees, JSON-shaped.

    A batch the runaway guard stops still yields the telemetry of the
    frames it ran.
    """
    with observe() as obs:
        rngs = [np.random.default_rng(seed) for seed in seeds]
        try:
            batched_fcat_sessions(protocol, n_tags, rngs, channel=channel)
        except RuntimeError:
            pass
    return {"events": [event.to_json() for event in obs.events.events],
            "counts": obs.events.counts(), "len": len(obs.events),
            "metrics": obs.metrics.snapshot()}


def _digest(payloads: list[dict]) -> str:
    text = json.dumps(payloads, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_observed_batches_are_pinned():
    """λ 2-4 × {perfect, impaired} × a 3-session batch at N = 700.

    The digest was recorded when every kernel frame emitted its events
    eagerly; the frame block must expand to the same events, in the same
    order with the same ``seq``, and leave the same counts, length and
    metrics.
    """
    payloads = [_observed_payload(Fcat(lam=lam), 700, range(3), channel)
                for lam in (2, 3, 4)
                for channel in (PERFECT_CHANNEL, IMPAIRED)]
    assert _digest(payloads) == \
        "b9c43c2ab6bfe2cf584c083e0825c26eb20e8417cdbf5b766d153cde93f2b866"


def test_frames_before_a_runaway_raise_stay_readable():
    """The guard fires mid-batch: every frame run before it is recorded.

    ``max_slots_factor=0`` caps each session at 1,000 slots, far short of
    the ≈2,000 that 1,000 tags need, so all three sessions run about 34
    frames and the batch raises.  The digest was recorded when those
    frames emitted eagerly.
    """
    protocol = Fcat(lam=3, max_slots_factor=0.0)
    with pytest.raises(RuntimeError, match="exceeded 1000 slots"):
        batched_fcat_sessions(protocol, 1000, [np.random.default_rng(0)])
    payload = _observed_payload(protocol, 1000, range(3), IMPAIRED)
    counts = payload["counts"]
    assert counts["frame"] == counts["estimator_update"] \
        == payload["metrics"]["histograms"]["estimator.rel_error"]["count"]
    assert counts["frame"] >= 3 * 30
    assert payload["len"] == len(payload["events"]) \
        == sum(counts.values())
    assert [event["seq"] for event in payload["events"]] \
        == list(range(payload["len"]))
    assert _digest([payload]) == \
        "66848a04b86bfe4416dadee33a7ff857acfa287bfc44ce542f8dc97b35bf7f81"


def _enabled_path_cost(monkeypatch, n_tags: int, frame_size: int
                       ) -> tuple[int, int, int, int]:
    """(frames, validations, stream records, events) of one observed batch."""
    tally = {"validate": 0, "record": 0}
    validate = events_module.validate_event
    record = EventStream._record
    # Looked up softly so the gate fails on its counts, not on a missing
    # attribute, against a stream without frame blocks.
    record_frames = getattr(EventStream, "record_frames", None)

    def counting_validate(name, fields):
        tally["validate"] += 1
        validate(name, fields)

    def counting_record(self, name, fields):
        tally["record"] += 1
        record(self, name, fields)

    def counting_record_frames(self, protocol, rows):
        tally["record"] += 1
        record_frames(self, protocol, rows)

    with monkeypatch.context() as patch:
        patch.setattr(events_module, "validate_event", counting_validate)
        patch.setattr(EventStream, "_record", counting_record)
        patch.setattr(EventStream, "record_frames", counting_record_frames,
                      raising=False)
        with observe() as obs:
            (result,) = batched_fcat_sessions(
                Fcat(lam=2, frame_size=frame_size), n_tags,
                [np.random.default_rng(1)])
    events = obs.events.events
    assert len(obs.events) == len(events)
    assert sum(1 for event in events if event.name == "frame") \
        == result.frames
    return result.frames, tally["validate"], tally["record"], len(events)


def test_enabled_path_cost_does_not_grow_with_frames(monkeypatch):
    """A deterministic gate on the observed kernel's per-frame cost.

    Two batches at N = 4,096 whose frame counts differ several-fold make
    the same number of schema validations and stream records; only the
    expanded event count follows the frames.
    """
    long_run = _enabled_path_cost(monkeypatch, 4096, frame_size=10)
    short_run = _enabled_path_cost(monkeypatch, 4096, frame_size=60)
    assert long_run[0] > 3 * short_run[0] > 300
    assert long_run[1:3] == short_run[1:3]
    assert long_run[1] <= 3 and long_run[2] == 1
    assert long_run[3] > 3 * short_run[3]
