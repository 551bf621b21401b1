"""Response bytes, content addresses and telemetry, pinned by digest.

Each case is a request body as the front end parses it.  For every case
the test pins the SHA-256 of:

* the response bytes (served fresh without a cache, and again by one
  service whose result cache every case shares, which must agree);
* the request's content address (stored as is: it is a digest already);
* the ``cell_done`` keys of the uncached run, in order;
* the run-range keys (with their spans) the shared cache saved for the
  case, beside the cell entry keys of older saves (now always empty);
* the case's telemetry: event names and fields, the timing fields
  dropped, plus counters, gauges and histogram counts.

The matrix covers a tag count that zones do not divide, an odd ring
(three phases), that ring folded onto two phases (two zones interfered,
three not), one phase (interfered zones on a composed channel), no
overlap, an ambient channel knob given as ``0`` and as ``0.0`` (two
requests that must keep two addresses and two echoes), three runs (float
means and a standard deviation), the adaptive planner and the scalar
engine.

Run-to-run spread is ``exact_stdev``'s, which rounds once on every
interpreter, so the three-run response digest holds on each of them.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments.result_cache import ResultCache
from repro.service.core import (RETAINED_REQUESTS, InventoryService,
                               ServiceConfig)
from repro.service.requests import request_from_dict

CASES = {
    "remainder": {"n_tags": 1001, "zones": 6, "seed": 3},
    "odd-ring": {"n_tags": 905, "zones": 5, "seed": 5, "lam": 3},
    "folded-ring": {"n_tags": 1003, "zones": 5, "seed": 29, "lam": 4,
                    "max_phases": 2},
    "one-phase": {"n_tags": 800, "zones": 4, "seed": 7, "max_phases": 1,
                  "channel": {"singleton_corrupt_prob": 0.05}},
    "no-overlap": {"n_tags": 640, "zones": 4, "seed": 9, "overlap": 0},
    "ambient-int-zero": {"n_tags": 300, "zones": 3, "seed": 13,
                         "channel": {"ack_loss_prob": 0}},
    "ambient-float-zero": {"n_tags": 300, "zones": 3, "seed": 13,
                           "channel": {"ack_loss_prob": 0.0}},
    "three-runs": {"n_tags": 360, "zones": 3, "seed": 17, "runs": 3},
    "planner": {"n_tags": 400, "zones": 2, "seed": 19, "runs": 4,
                "precision": 0.2},
    "scalar": {"n_tags": 120, "zones": 2, "seed": 23, "engine": "scalar"},
}

#: Fields that carry wall-clock time, by event.
_TIMING_FIELDS = {"cell_done": ("elapsed_s",),
                  "chunk_done": ("duration_s", "queue_wait_s"),
                  "request_done": ("elapsed_s",)}
#: Histograms of wall-clock time: only their counts are pinned.
_TIMING_HISTOGRAMS = ("chunk.duration_s", "chunk.queue_wait_s",
                      "request.cold_latency_s", "request.latency_s",
                      "request.warm_latency_s")

#: Recorded once, before the cold path was reworked; never re-recorded,
#: except ``saved_keys`` once: since the cache stores run ranges only, a
#: save holds no cell entries, and each ``saved_keys`` digest is the one the
#: earlier two-kind cache gives for its saved range keys alone (its cell
#: entries dropped), computed on that code.
PINS = {
    "remainder": {
        "response":
            "1445450d8f8041b14858081c04291851a97f71bef54e0265975b8fb5327e8c5d",
        "request_key":
            "0bc4d663d12f4f426d73af87f7789c3971e8ff53eee9ee11123e9b22b44c7331",
        "cell_keys":
            "1c3c814587b5fae1d62308fac0505afba59741e8b193fa2107316b6340517e86",
        "saved_keys":
            "79be90a9183d8ef42469622d7a4ce97e2b2878b817dc684d18d5ed4eb01eb03a",
        "telemetry":
            "7524d3864d91c2f3bcc7454f422a09390f25808e42aeb1ab65c93b694e53af6e",
    },
    "odd-ring": {
        "response":
            "2419c306be55fd4ed596340622fdcf3709c383bde5e0d532db8cc6466216bbc7",
        "request_key":
            "fb6b0ef82af986fc96f18fa0ea11864f29cfb1a4b35c5ea1294f50fc4b02f6df",
        "cell_keys":
            "41d62618024112d0c553550c98ef567f698a379b8245b8c5284f0edaa54948c3",
        "saved_keys":
            "e9f15d040a2d8b715385cc6cf29bafac2e5a918af41e95e90fe8691924618031",
        "telemetry":
            "a2ee1f2e1dfd8691878a5dd32490af2f3eea3d6036f8fdcaf54f73cc4777eb1e",
    },
    "folded-ring": {
        "response":
            "a41791184105c2dc5776bd8f564003506de488117fbb1e3a04033927ed273a29",
        "request_key":
            "23343e44ca8084aa3f8ce93fbeeb0ad923639cf1b69f6d734c7f6d322e5eb798",
        "cell_keys":
            "2299a58e8bc495eaa505e8b5f00be56282074e2376a780a1db207d6088b37e58",
        "saved_keys":
            "c15d727f01681c3af7833664ca7f236ad6dc96fc6a174ccf983ec5fb925ac4da",
        "telemetry":
            "aa01398b96180a5ce3d454e49357e68bdc3cfcc113002c3b1b3c659680ceae2c",
    },
    "one-phase": {
        "response":
            "b5f0692bb559655c7a79d9fbd7929bc3b64c01dc5a63f4a25b67dd1a528d35eb",
        "request_key":
            "e00da211844fd4cadc4fc690a60ece8c700764e335ea7680a87aeef4d45a7764",
        "cell_keys":
            "8745c152e6f3bad924e25ea5c31270e8932d8ac42d2fb29ccbfee97ae66c8c8a",
        "saved_keys":
            "995ce3bb65430ba8ade4af77a0aff803d2b427f8d71264c781a44ecc78af42bc",
        "telemetry":
            "a75cf63d8d063f287598475c463449d8c026f83a817ea9b9a6b419e68ea3eb53",
    },
    "no-overlap": {
        "response":
            "431fceebec0a310b142e6cc6a0747247cbaa9a3a60bd071265a3c05f3afd2f90",
        "request_key":
            "3c2221e8e2d82866f9bd15ccdc9ed5c0d601d0e702fc43d707787eeebc96cd4e",
        "cell_keys":
            "0848b20f99b590770994268db810b39be370b8e9cb4e3b8c577edb7218b484ef",
        "saved_keys":
            "d007bd7c3ae4dca3706939b4e1d5ad363e75d5da8fa13a9e879247029792d276",
        "telemetry":
            "5eb2b1d61ec31d7daf8ed41270ff5b4b3318539235c65a4361468a627d37d2b5",
    },
    "ambient-int-zero": {
        "response":
            "8c4457ad87535bf6984b301e3b20db82db387b3260b8954a1d72176e6bd4f891",
        "request_key":
            "d3fa30be311eed3b5b3710cc80455e608812aca87601bf353426a39b7162604c",
        "cell_keys":
            "1c05868bff846c75b12b9714f88b06a35eef107f094a268b6b1067f5a519f4fc",
        "saved_keys":
            "30de39cb3cea04254caa1b18ea7a6ebf03be050f9ce8d298e76f04b9eefb766b",
        "telemetry":
            "794bef92a75de63df4d3bc2b43a486e87756b2e558eff094ed30773c13f90c91",
    },
    "ambient-float-zero": {
        "response":
            "e48743b65923502321cfb6d872f97369491a19c8d3cb2e2efdbe81c1d4a14711",
        "request_key":
            "eb152b3797f022c777bac9ffb55095b319ec3443fd0cd890f301b917b3359f73",
        "cell_keys":
            "1c05868bff846c75b12b9714f88b06a35eef107f094a268b6b1067f5a519f4fc",
        "saved_keys":
            "643d5437104296e21d906ecb15b2c96ad278f20cfc4af53b12bb6069bd853726",
        "telemetry":
            "4095a6594d6743c02fb3a5e4699dba168b7939fa60262424dc85a03ea7e7a902",
    },
    "three-runs": {
        "response":
            "49ca4b777156a30cb61f038f1358ebef54deb1b375426dd62f7f24dfecd5431f",
        "request_key":
            "b3fe26b34ec5340fd109367d1956bb5b6c1435312aa83cb4202cb2ed8aed5f48",
        "cell_keys":
            "90570cb6528fbc6721ae24e9f295ad93b9c649f06a986b56a12062296f172e38",
        "saved_keys":
            "d78f99573bf88f25adc67357a8140d7a768f28f9ec5ccce00b33ae30a2dc0814",
        "telemetry":
            "052c1d96d726b02f108744b5b210f60c8036ac71157ac726165168c0a8e959f9",
    },
    "planner": {
        "response":
            "86edb902340181bbe3f126b928992535ad02175a665d49f5e21bd3734cfe3882",
        "request_key":
            "c2442d9f0d1166307361c81d1bb34d01a2554dfd9a8bcf0372a8e82e10390a7e",
        "cell_keys":
            "70b82cce09d71622758c0d12cf7d93d086c9b1bf47028ce16867aad3dd1668e7",
        "saved_keys":
            "54654ade717267303f25417751645c736c4addc0851913f99492fa0f899bf3ec",
        "telemetry":
            "81cea18c3d9185b8eb8b5708cc4bb1f4ddb24950b23cc6458ff3a8068e485218",
    },
    "scalar": {
        "response":
            "58ad7322da02009abad33ae8de39fd16f8a074b246297d872e1c1cccb72b1e09",
        "request_key":
            "10bf3b869fb5bdedb15605bc0ad004d944ccd011a077d43c731d5bbce5ca16cc",
        "cell_keys":
            "97ffafb738cd2a31133d473a955008c80d7f5071906831f90d92da5b32b99909",
        "saved_keys":
            "961777947094196202862afbf0687570c86e9030b599efeac7efbf9a38fc2755",
        "telemetry":
            "6c8a69b4a4ea55774ba55fdc97bc50f6ccdfd1ff273cb4f66a887b56910ef1a0",
    },
    "shared-telemetry": {
        "telemetry":
            "c2ae49d918060028a60b9c7238d4853ee5f4075b0163f2f709147b99c864ddf5",
    },
}


def _digest(value: object) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _telemetry(service: InventoryService) -> str:
    events = []
    for event in service.obs.events.events:
        fields = {name: value for name, value in event.fields.items()
                  if name not in _TIMING_FIELDS.get(event.name, ())}
        events.append([event.name, fields])
    snapshot = service.obs.metrics.snapshot()
    histograms = {name: (summary["count"] if name in _TIMING_HISTOGRAMS
                         else summary)
                  for name, summary in snapshot["histograms"].items()}
    return _digest([events, snapshot["counters"], snapshot["gauges"],
                    histograms])


def _saved_keys(lines: list[str]) -> str:
    entries, ranges = [], []
    for line in lines:
        payload = json.loads(line)
        entries += payload.get("entries", [])
        ranges += [f"{key}:{label}"
                   for key, spans in payload["runs"].items()
                   for label in spans]
    return _digest([sorted(entries), sorted(ranges)])


def observed_pins(cache_path) -> dict[str, dict[str, str]]:
    """Every case's digests, as :data:`PINS` holds them."""
    shared = InventoryService(ServiceConfig(
        cache=ResultCache(cache_path, signature="pins")))
    saved = 0
    pins = {}
    for name, body in CASES.items():
        request = request_from_dict(json.loads(json.dumps(body)))
        fresh = InventoryService()
        response = fresh.handle(request)
        assert shared.handle(request_from_dict(json.loads(
            json.dumps(body)))) == response, name
        lines = cache_path.read_text(encoding="utf-8").splitlines()
        pins[name] = {
            "response": hashlib.sha256(response).hexdigest(),
            "request_key": request.key(),
            "cell_keys": _digest([event.fields["key"]
                                  for event in fresh.obs.events.events
                                  if event.name == "cell_done"]),
            "saved_keys": _saved_keys(lines[saved:]),
            "telemetry": _telemetry(fresh),
        }
        saved = len(lines)
    pins["shared-telemetry"] = {"telemetry": _telemetry(shared)}
    return pins


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    return observed_pins(tmp_path_factory.mktemp("pins") / "cache.json")


@pytest.mark.parametrize("case", [*CASES, "shared-telemetry"])
def test_the_case_is_pinned(observed, case):
    assert dict(observed[case]) == dict(PINS[case])


def test_zero_and_float_zero_keep_distinct_addresses_and_echoes(observed):
    int_zero, float_zero = (observed["ambient-int-zero"],
                            observed["ambient-float-zero"])
    assert int_zero["request_key"] != float_zero["request_key"]
    assert int_zero["response"] != float_zero["response"]
    # The two requests simulate the same cells.
    assert int_zero["cell_keys"] == float_zero["cell_keys"]


def _window_bodies() -> list[dict]:
    """More requests than the service retains; every fourth repeats an
    earlier request and is served warm from the response store."""
    bodies: list[dict] = []
    for index in range(RETAINED_REQUESTS + 8):
        bodies.append(bodies[index // 2] if index % 4 == 3 else
                      {"n_tags": 90 + 7 * index, "zones": 1 + index % 3,
                       "seed": 100 + index})
    return bodies


def _untimed_metrics(snapshot: dict) -> dict:
    """A metrics snapshot with the wall-clock histograms cut to counts."""
    return {**snapshot, "histograms": {
        name: (summary["count"] if name in _TIMING_HISTOGRAMS else summary)
        for name, summary in snapshot["histograms"].items()}}


def _untimed_fields(name: str, fields: dict) -> dict:
    fields = {key: value for key, value in fields.items()
              if key not in _TIMING_FIELDS.get(name, ())}
    if name == "metrics_snapshot":
        fields["metrics"] = _untimed_metrics(fields["metrics"])
    return fields


def retained_window_digest() -> str:
    """What the telemetry surfaces show after the window has slid.

    The digest covers the ``/healthz`` manifest's cells, the
    ``/metrics.jsonl`` lines and the ``/stats`` document, each as the
    front end renders it from the service, timing fields dropped.
    """
    service = InventoryService()
    for body in _window_bodies():
        service.handle(request_from_dict(json.loads(json.dumps(body))))
    lines = [{"seq": event.seq, "event": event.name,
              **_untimed_fields(event.name, event.fields)}
             for event in service.metrics_events()]
    cells = [{key: value for key, value in cell.items() if key != "elapsed_s"}
             for cell in service.manifest().to_dict()["cells"]]
    stats = {key: value for key, value in service.stats().items()
             if key != "uptime_s"}
    stats["metrics"] = _untimed_metrics(stats["metrics"])
    return _digest([cells, lines, stats])


#: Recorded before the manifest read its cells from the ``cell_done``
#: events; never re-recorded.
RETAINED_WINDOW_DIGEST = \
    "bec8e7fccd934651d63705cf08c4b64a7e445315809e88a7e4ecf4bc2dde97dc"


def test_the_retained_window_surfaces_are_pinned():
    assert retained_window_digest() == RETAINED_WINDOW_DIGEST
