"""Inventory request/response schema and the canonical request address.

A request names a facility (tag count, zone count, overlap geometry), the
readers (ANC capability, runs per zone, engine) and a seed; everything a
response depends on lives in these fields, so a request has a *content
address* -- the SHA-256 of its canonical JSON rendering, built on the same
:func:`repro.experiments.result_cache.canonical_fingerprint` machinery the
cell cache keys use.  The service's warm path stores encoded responses
under this address, and its determinism contract is stated in terms of it:
same address in, same bytes out, whoever and whenever serves it.

Responses are rendered by :func:`encode_response`: sorted keys, exact
``repr`` floats (Python's ``json`` round-trips them), a trailing newline,
no timestamps -- every field is a pure function of the request.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field

from repro.experiments.result_cache import canonical_fingerprint
from repro.kernels.engine import ENGINES
from repro.sim.channel import ChannelModel

__all__ = [
    "MAX_ERROR_PROB",
    "MAX_LAM",
    "MAX_N_TAGS",
    "MAX_RUNS",
    "MAX_ZONES",
    "InventoryRequest",
    "encode_response",
    "request_from_dict",
]

# Per-request caps.  They sit above benchmark and demo traffic (≈2.1 M
# tags, 48 zones, λ 2-4, one run) and bound what one request can cost the
# compute lane.
MAX_N_TAGS = 1 << 24
MAX_ZONES = 256
MAX_RUNS = 100
#: The highest λ at which every session of the overrun sweep finished:
#: zone readers at f = 30, n = 1-79 step 3, 10 seeds, both engines, on a
#: perfect channel and on the worst composite channel the caps allow.
#: On that channel sessions overran the slot guard at λ = 10 (1 of 270
#: scalar sessions) and 11 (≈100 of 270); at λ = 12 even on a perfect one.
MAX_LAM = 9
#: Cap on the ambient singleton-corruption and ack-loss probabilities.
#: Composed with the worst interference load they stay at most 0.75 and
#: 0.6, where a session needs ≈30 slots per tag against a guard of 200;
#: at 0.9 each, sessions overrun the guard.
MAX_ERROR_PROB = 0.5

#: Fields a request dict may carry (everything else is rejected early).
_REQUEST_FIELDS = ("n_tags", "zones", "seed", "runs", "lam", "overlap",
                   "max_phases", "engine", "precision", "channel")


@dataclass(frozen=True)
class InventoryRequest:
    """One facility inventory request, fully specifying its response."""

    #: Facility tag population to inventory.
    n_tags: int
    #: Reader/zone count the population shards across.
    zones: int
    #: Root seed; every zone cell seed derives from it deterministically.
    seed: int
    #: Monte-Carlo runs per zone cell.
    runs: int = 1
    #: ANC capability λ of the zone readers (MPR capability m).
    lam: int = 2
    #: Fraction of each zone's successor it also hears (ring geometry).
    overlap: float = 0.15
    #: Cap on schedule length; ``None`` allows a proper coloring.
    max_phases: int | None = None
    #: Simulation engine: ``"kernel"`` (default) or ``"scalar"``.
    engine: str = "kernel"
    #: Optional adaptive-planner precision; ``None`` runs the full budget.
    precision: float | None = None
    #: Ambient (non-interference) channel impairments.
    channel: ChannelModel = field(default_factory=ChannelModel)

    def __post_init__(self) -> None:
        if not 1 <= self.n_tags <= MAX_N_TAGS:
            raise ValueError(f"n_tags must be in [1, {MAX_N_TAGS}]")
        if not 1 <= self.zones <= min(self.n_tags, MAX_ZONES):
            raise ValueError(f"zones must be in [1, {MAX_ZONES}] and "
                             "at most n_tags")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 1 <= self.runs <= MAX_RUNS:
            raise ValueError(f"runs must be in [1, {MAX_RUNS}]")
        if not 2 <= self.lam <= MAX_LAM:
            raise ValueError(f"lam must be in [2, {MAX_LAM}] "
                             "(2 is FCAT's ANC floor)")
        if not 0.0 <= self.overlap < 1.0:
            raise ValueError("overlap must be in [0, 1)")
        if self.max_phases is not None and self.max_phases < 1:
            raise ValueError("max_phases must be >= 1 or null")
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {', '.join(ENGINES)}")
        if self.precision is not None and not (
                math.isfinite(self.precision) and self.precision > 0):
            raise ValueError("precision must be finite and > 0, or null")
        for knob in ("singleton_corrupt_prob", "ack_loss_prob"):
            if getattr(self.channel, knob) > MAX_ERROR_PROB:
                raise ValueError(f"channel {knob} must be <= "
                                 f"{MAX_ERROR_PROB}")

    def key(self) -> str:
        """The request's content address (SHA-256 of its canonical form).

        Computed once per request: the front end's store lookup and the
        compute lane's re-check ask for it in turn.
        """
        key = self.__dict__.get("_key")
        if key is None:
            payload = json.dumps({"kind": "inventory-request",
                                  **canonical_fingerprint(asdict(self))},
                                 sort_keys=True, separators=(",", ":"))
            key = hashlib.sha256(payload.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_key", key)  # frozen: not a field
        return key

    def to_dict(self) -> dict:
        """JSON-able form; the channel flattens to its four knobs."""
        payload = asdict(self)
        payload["channel"] = asdict(self.channel)
        return payload


def request_from_dict(payload: dict) -> InventoryRequest:
    """Parse and validate a request body; raises ``ValueError`` on junk."""
    if not isinstance(payload, dict):
        raise ValueError("request body must be a JSON object")
    unknown = sorted(set(payload) - set(_REQUEST_FIELDS))
    if unknown:
        raise ValueError(f"unknown request field(s): {', '.join(unknown)}")
    missing = [name for name in ("n_tags", "zones", "seed")
               if name not in payload]
    if missing:
        raise ValueError(f"missing request field(s): {', '.join(missing)}")
    fields = dict(payload)
    channel = fields.pop("channel", None)
    if channel is not None:
        if not isinstance(channel, dict):
            raise ValueError("channel must be a JSON object of error knobs")
        for knob, value in channel.items():
            if isinstance(value, bool):
                raise ValueError(f"channel {knob} must be a number")
        try:
            fields["channel"] = ChannelModel(**channel)
        except TypeError as error:
            raise ValueError(f"bad channel knobs: {error}") from None
    for name in ("n_tags", "zones", "seed", "runs", "lam", "max_phases"):
        if name not in fields or (name == "max_phases"
                                  and fields[name] is None):
            continue
        # bool subclasses int, but `true` is not a tag count.
        if isinstance(fields[name], bool) \
                or not isinstance(fields[name], int):
            raise ValueError(f"{name} must be an integer")
    for name in ("overlap", "precision"):
        # Nor is `true` a float: it would be served as 1.0 under a
        # different request key and echoed back as `true`.
        if isinstance(fields.get(name), bool):
            raise ValueError(f"{name} must be a number")
    try:
        return InventoryRequest(**fields)
    except TypeError as error:
        raise ValueError(f"bad request: {error}") from None


def encode_response(payload: dict) -> bytes:
    """Render a response payload to its canonical bytes.

    Sorted keys and a fixed separator style make the rendering a pure
    function of the payload's value; the payload itself is a pure function
    of the request, so the encoded bytes are the determinism contract's
    unit of comparison.
    """
    return (json.dumps(payload, sort_keys=True, separators=(", ", ": "))
            + "\n").encode("utf-8")
