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
#: except twice.  ``saved_keys`` once: since the cache stores run ranges
#: only, a save holds no cell entries, and each ``saved_keys`` digest is the
#: one the earlier two-kind cache gives for its saved range keys alone (its
#: cell entries dropped), computed on that code.  ``cell_keys``,
#: ``saved_keys`` and ``telemetry`` once more when ``FcatConfig`` lost five
#: fields, which moved every FCAT content address: the same surfaces with
#: every ``key`` field removed digested the same before and after.
PINS = {
    "remainder": {
        "response":
            "1445450d8f8041b14858081c04291851a97f71bef54e0265975b8fb5327e8c5d",
        "request_key":
            "0bc4d663d12f4f426d73af87f7789c3971e8ff53eee9ee11123e9b22b44c7331",
        "cell_keys":
            "4c4e279b1ecf81915c0dd6a3ab53e4dc11bb975d80dc39b7eb7c18d4b10eb754",
        "saved_keys":
            "51a93adf5e1e933d0573c202777522c01e85c234c224c89d1cea600c7fc26897",
        "telemetry":
            "23e1f99d1ec60cad11b363ac42ba44ca2a9cdea7bc5c0797962e9acb92d3ebf6",
    },
    "odd-ring": {
        "response":
            "2419c306be55fd4ed596340622fdcf3709c383bde5e0d532db8cc6466216bbc7",
        "request_key":
            "fb6b0ef82af986fc96f18fa0ea11864f29cfb1a4b35c5ea1294f50fc4b02f6df",
        "cell_keys":
            "d2509ce6411154678615e0cb0103f0713511d7ce3f08e406279c7114f129cbe5",
        "saved_keys":
            "a57c5ff45f5ac1229b655e74f13eda062dec3473abcbca6ec7637118cf916f78",
        "telemetry":
            "49b8eaf2ba9eea4620356f94e1ae83afef65f10f8e39fcc2670d076d73c82f92",
    },
    "folded-ring": {
        "response":
            "a41791184105c2dc5776bd8f564003506de488117fbb1e3a04033927ed273a29",
        "request_key":
            "23343e44ca8084aa3f8ce93fbeeb0ad923639cf1b69f6d734c7f6d322e5eb798",
        "cell_keys":
            "d55083b34c32e9a98d1b2b14f3bf5ceca0aa636078e8d147b2164057d4737cc4",
        "saved_keys":
            "b0ddc7f2777244440281b288e3a58ba774bc2d58be755e528ce946d39227c6e2",
        "telemetry":
            "ddd15f2b965f33766b87deea069232b71b80d97ac3fb232ab74211d3d971bef5",
    },
    "one-phase": {
        "response":
            "b5f0692bb559655c7a79d9fbd7929bc3b64c01dc5a63f4a25b67dd1a528d35eb",
        "request_key":
            "e00da211844fd4cadc4fc690a60ece8c700764e335ea7680a87aeef4d45a7764",
        "cell_keys":
            "d509e3620274779b5a8c490edb8aebb67afd7ccdf8e10162f971856349235173",
        "saved_keys":
            "7fb6ee6efd9d29cd220e8acf942c8b8f16daca34438e6aadd04b83b78e7aa894",
        "telemetry":
            "98024b37bc89701e4fa01abb324ca45306decccf26d5b26e038f846b856299c2",
    },
    "no-overlap": {
        "response":
            "431fceebec0a310b142e6cc6a0747247cbaa9a3a60bd071265a3c05f3afd2f90",
        "request_key":
            "3c2221e8e2d82866f9bd15ccdc9ed5c0d601d0e702fc43d707787eeebc96cd4e",
        "cell_keys":
            "412fe99b0b94a3e00fc100282bf27d39c7a291c9908ee63ba2459aac1a49e01b",
        "saved_keys":
            "b0cc94c117d4440b83a26731496ab0c173845bd1b59d00945f86f321b2da06be",
        "telemetry":
            "33331d396ccc2d01efed2fa41f1a9a046423bfc219b86ce71c0b0f561b8b8a0c",
    },
    "ambient-int-zero": {
        "response":
            "8c4457ad87535bf6984b301e3b20db82db387b3260b8954a1d72176e6bd4f891",
        "request_key":
            "d3fa30be311eed3b5b3710cc80455e608812aca87601bf353426a39b7162604c",
        "cell_keys":
            "99dbb70167c83d9ac1a6f750ce0dd5a014aefc96d4414b2faa016d61b7da4bf2",
        "saved_keys":
            "0ae9a1c0ee296e95f8651acd336398e3cd4356981557e4e8b3a501c47a72e14d",
        "telemetry":
            "053bea7764ed0277f7ab860678eb7854c79891ed37324ee9f7df6aa009dd64c0",
    },
    "ambient-float-zero": {
        "response":
            "e48743b65923502321cfb6d872f97369491a19c8d3cb2e2efdbe81c1d4a14711",
        "request_key":
            "eb152b3797f022c777bac9ffb55095b319ec3443fd0cd890f301b917b3359f73",
        "cell_keys":
            "99dbb70167c83d9ac1a6f750ce0dd5a014aefc96d4414b2faa016d61b7da4bf2",
        "saved_keys":
            "643d5437104296e21d906ecb15b2c96ad278f20cfc4af53b12bb6069bd853726",
        "telemetry":
            "d2c81f2f76fc61689fa6a410f23e0ab56e546ee6b8f0c657befd48f210a9c881",
    },
    "three-runs": {
        "response":
            "49ca4b777156a30cb61f038f1358ebef54deb1b375426dd62f7f24dfecd5431f",
        "request_key":
            "b3fe26b34ec5340fd109367d1956bb5b6c1435312aa83cb4202cb2ed8aed5f48",
        "cell_keys":
            "01b8de4069f34664240e2ef64e01b117a88faf7ffe09e434a59197c58215af8b",
        "saved_keys":
            "f23e31954012be1bd26f8a721d9f4f7b5011e262c4f6e372dbf9bd4c494ed9b1",
        "telemetry":
            "c9148de146b0b057fd67c3f29598a1b23185b7231bf9464de5e6319cd512779c",
    },
    "planner": {
        "response":
            "86edb902340181bbe3f126b928992535ad02175a665d49f5e21bd3734cfe3882",
        "request_key":
            "c2442d9f0d1166307361c81d1bb34d01a2554dfd9a8bcf0372a8e82e10390a7e",
        "cell_keys":
            "5e59d70882162f00f4cc85adf6576ca9f985d68d9b9c94a59175cfbab4e16041",
        "saved_keys":
            "27ea2152bb7360f21110e846e62c3f2bc9102707dfbaeef46d26ae7a329b68e4",
        "telemetry":
            "fcd22283f2ce0d31aaba268bf386251d520397f0dba8e3bdd4aafa2984e120e9",
    },
    "scalar": {
        "response":
            "58ad7322da02009abad33ae8de39fd16f8a074b246297d872e1c1cccb72b1e09",
        "request_key":
            "10bf3b869fb5bdedb15605bc0ad004d944ccd011a077d43c731d5bbce5ca16cc",
        "cell_keys":
            "489f5b1060afef23823cdd0def8b5443a871dc0911548ab290552c322d9bc53b",
        "saved_keys":
            "cd2f62b4493b7c55bef9c555bec0aaa2a34b67ac26e010926df72229163b3814",
        "telemetry":
            "444f570de285fb5d46180c81d81668026cd532e74a0e40891077190ecdbe24a8",
    },
    "shared-telemetry": {
        "telemetry":
            "5fedcc6774e3268ad822ad1aaa3956d588837fdcd1c0cb01f44db0f06bcfae3f",
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
#: events; re-recorded once, when ``FcatConfig`` lost five fields, which
#: moved every FCAT cell key (the surfaces without their ``key`` fields
#: digested the same before and after).
RETAINED_WINDOW_DIGEST = \
    "f4fa6446fd91e1e624a5bd29b44e946c1f7ea07130a0ae4c7bf25cb7efd325c1"


def test_the_retained_window_surfaces_are_pinned():
    assert retained_window_digest() == RETAINED_WINDOW_DIGEST
