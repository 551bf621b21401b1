"""The service core: byte-identity, warm paths, dedup, observability."""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.fcat import Fcat
from repro.experiments.result_cache import ResultCache
from repro.experiments.executor import CellSpec, execute_cells
from repro.obs.events import EventStream
from repro.obs.report import cross_check_manifest
from repro.service import core
from repro.service.core import (
    RETAINED_REQUESTS,
    InventoryService,
    ServiceConfig,
)
from repro.service.requests import InventoryRequest

REQUEST = InventoryRequest(n_tags=600, zones=6, seed=11, runs=2)


def test_identical_request_returns_identical_bytes():
    service = InventoryService()
    assert service.handle(REQUEST) == service.handle(REQUEST)


def test_bytes_identical_across_instances_and_jobs():
    serial = InventoryService(ServiceConfig(jobs=1))
    parallel = InventoryService(ServiceConfig(jobs=4))
    assert serial.handle(REQUEST) == parallel.handle(REQUEST)


def test_bytes_identical_under_concurrency():
    service = InventoryService(ServiceConfig(jobs=2))
    responses: list[bytes] = []
    lock = threading.Lock()

    def worker() -> None:
        response = service.handle(REQUEST)
        with lock:
            responses.append(response)

    threads = [threading.Thread(target=worker) for _ in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(set(responses)) == 1
    assert responses[0] == InventoryService().handle(REQUEST)


def test_warm_request_skips_the_executor():
    service = InventoryService()
    service.handle(REQUEST)
    cells_after_cold = service.obs.events.counts()["cell_done"]
    service.handle(REQUEST)
    # No new simulation.
    assert service.obs.events.counts()["cell_done"] == cells_after_cold
    done = [event for event in service.obs.events.events
            if event.name == "request_done"]
    assert [event.fields["cached"] for event in done] == [False, True]


def test_result_cache_warms_across_service_instances(tmp_path):
    cache_path = tmp_path / "cache.json"
    cold = InventoryService(ServiceConfig(cache=ResultCache(cache_path)))
    response = cold.handle(REQUEST)
    cold.config.cache.save()

    warm = InventoryService(ServiceConfig(cache=ResultCache(cache_path)))
    assert warm.handle(REQUEST) == response
    cell_done = [event for event in warm.obs.events.events
                 if event.name == "cell_done"]
    assert cell_done and all(event.fields["cached"] for event in cell_done)
    hits = [event for event in warm.obs.events.events
            if event.name == "cache_hit"]
    assert hits


def test_exchangeable_zones_share_cells():
    service = InventoryService()
    payload = json.loads(service.handle(
        InventoryRequest(n_tags=1600, zones=16, seed=5)))
    # A 16-zone even ring has far fewer distinct (n, frame, channel)
    # configurations than zones.
    assert payload["plan"]["distinct_cells"] < 16
    assert payload["plan"]["zones"] == 16
    assert len(service.manifest().cells) == payload["plan"]["distinct_cells"]


def test_payload_shape_and_rollups():
    service = InventoryService()
    payload = json.loads(service.handle(REQUEST))
    assert payload["schema"] == "repro-inventory/1"
    assert payload["request_key"] == REQUEST.key()
    assert payload["facility"]["unique_tags"] == 600
    assert sum(zone["exclusive_tags"] for zone in payload["zones"]) == 600
    assert len(payload["facility"]["phase_durations_s"]) \
        == payload["plan"]["phases"]
    assert payload["facility"]["read_time_s"] == pytest.approx(
        sum(payload["facility"]["phase_durations_s"]))
    assert payload["facility"]["throughput"] > 0
    for zone in payload["zones"]:
        assert zone["runs"] == REQUEST.runs
        assert zone["throughput_mean"] > 0


@pytest.mark.parametrize("lam", [2, 3, 4])
def test_zone_throughput_matches_the_scalar_fcat_oracle(lam):
    """A zone reads at the paper's FCAT-λ throughput for its size.

    The oracle is the scalar engine's ``Fcat(lam, frame_size=30)`` at the
    zone's N = 4096, seeded with the zone's population as the service
    seeds every reader.  The means must agree within a Welch bound of
    z = 4.5 standard errors (false-alarm odds ≈ 7e-6).  The framed-ALOHA
    zone frames this replaced (f ≈ N/2) read at 0.4-0.6× the oracle.
    """
    n_tags = 4096
    payload = json.loads(InventoryService().handle(InventoryRequest(
        n_tags=n_tags, zones=1, seed=lam, runs=12, lam=lam)))
    (zone,) = payload["zones"]
    (oracle,) = execute_cells([CellSpec(
        protocol=Fcat(lam=lam, frame_size=30,
                      initial_estimate=float(n_tags)),
        n_tags=n_tags, runs=6, seed=100 + lam, engine="scalar")])
    standard_error = math.sqrt(zone["throughput_std"] ** 2 / zone["runs"]
                               + oracle.throughput_std ** 2 / oracle.runs)
    assert abs(zone["throughput_mean"] - oracle.throughput_mean) \
        <= 4.5 * standard_error, (zone["throughput_mean"],
                                  oracle.throughput_mean, standard_error)


def test_capped_phases_produce_interfered_zones():
    service = InventoryService()
    payload = json.loads(service.handle(
        InventoryRequest(n_tags=800, zones=8, seed=2, max_phases=1)))
    assert payload["plan"]["phases"] == 1
    assert payload["plan"]["interfered_zones"] == 8
    assert all(zone["interference_load"] > 0 for zone in payload["zones"])


def test_manifest_cross_checks_against_metrics_dump():
    service = InventoryService()
    service.handle(REQUEST)
    service.handle(InventoryRequest(n_tags=300, zones=3, seed=1))
    events = service.metrics_events()
    manifest = service.manifest()
    assert cross_check_manifest(events, manifest) == []
    assert manifest.cells


def test_cross_check_catches_a_dump_and_a_manifest_of_two_services():
    """A ``/metrics.jsonl`` dump checked against the ``/healthz`` manifest
    of a service that served other requests reports the cells each lacks
    and the event-count gap."""
    dumped, other = InventoryService(), InventoryService()
    dumped.handle(REQUEST)
    other.handle(InventoryRequest(n_tags=300, zones=3, seed=1))
    problems = cross_check_manifest(dumped.metrics_events(),
                                    other.manifest())
    assert any("has no cell_done event" in p for p in problems)
    assert any("missing from the manifest" in p for p in problems)
    assert any(p.startswith("manifest records") for p in problems)


def test_metrics_dump_builds_events_outside_the_telemetry_lock(monkeypatch):
    """Only the record list is copied under the lock that warm hits
    take; the ``Event`` list is built after it is released, and it is the
    stream's own events, closing snapshot included."""
    service = InventoryService()
    service.handle(REQUEST)
    held: list[bool] = []
    build = EventStream.events.fget

    def watched(stream):
        held.append(service._telemetry.locked())
        return build(stream)

    monkeypatch.setattr(EventStream, "events", property(watched))
    events = service.metrics_events()
    assert held == [False]
    monkeypatch.undo()
    assert events == service.obs.events.events
    assert events[-1].name == "metrics_snapshot"


def _deterministic(events) -> list:
    """``(seq, name, fields)`` minus wall-clock fields and the snapshot."""
    return [(event.seq, event.name,
             {key: value for key, value in event.fields.items()
              if not key.endswith("_s")})
            for event in events if event.name != "metrics_snapshot"]


def test_a_forget_cut_inside_a_frame_block_keeps_the_retained_events():
    """Cuts inside a kernel frame block drop exactly the oldest events.

    The first cut falls between a frame row's ``frame`` and
    ``estimator_update`` events, the second five events later; the
    retained events keep their ``seq`` numbers, and a later request's
    events follow them.  The digest of the final dump was recorded when
    kernel frames emitted their events eagerly, and re-recorded once when
    ``FcatConfig`` lost five fields, which moved the FCAT cell keys in it
    (the dump without its ``key`` fields digested the same before and
    after).
    """
    service = InventoryService()
    service.handle(InventoryRequest(n_tags=600, zones=3, seed=5, lam=3))
    full = service.obs.events.snapshot().events
    updates = [index for index, event in enumerate(full)
               if event.name == "estimator_update"]
    cut = updates[2]
    assert full[cut - 1].name == "frame"
    service.obs.events.forget(cut)
    service.obs.events.forget(5)
    assert [(e.seq, e.name, e.fields) for e in service.obs.events.events] \
        == [(e.seq, e.name, e.fields) for e in full[cut + 5:]]
    assert len(service.obs.events) == len(full) - cut - 5
    service.handle(InventoryRequest(n_tags=400, zones=2, seed=6, lam=4))
    retained = _deterministic(service.metrics_events())
    assert retained[0][0] == cut + 5
    assert [seq for seq, _, _ in retained] \
        == list(range(cut + 5, cut + 5 + len(retained)))
    digest = hashlib.sha256(
        json.dumps(retained, sort_keys=True).encode()).hexdigest()
    assert digest == \
        "dd23796002409370d811a80a1e24f0301e9b6cdf15080d15fa38edf1664fb345"


def test_serving_a_cold_request_loads_no_scipy():
    """The reader is closed-form (ω* = (λ!)^{1/λ}, Eq. 12): a fresh
    interpreter that starts the service and serves a cold request never
    imports scipy.  The numerical solvers import it on first call."""
    script = (
        "import sys\n"
        "import repro.service.__main__\n"
        "from repro.service.core import InventoryService\n"
        "from repro.service.requests import InventoryRequest\n"
        "InventoryService().handle(InventoryRequest(\n"
        "    n_tags=2048, zones=4, seed=5, lam=3))\n"
        "print(*sorted(name for name in sys.modules\n"
        "              if name == 'scipy' or name.startswith('scipy.')))\n")
    src = Path(__file__).resolve().parents[2] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    finished = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
    assert finished.returncode == 0, finished.stderr
    loaded = finished.stdout.split()
    assert loaded == [], f"{len(loaded)} scipy modules, {loaded[:3]}..."


def test_event_memory_stays_flat_over_many_distinct_requests():
    """Records stay inside the window; totals stay exact for life.

    Ten thousand tiny distinct requests, each simulating one cell: the
    retained events are exactly the last ``RETAINED_REQUESTS`` requests'
    and never more than that many requests can emit, the cell records
    never exceed the window, ``/stats`` counts every event ever emitted,
    and the dump and manifest still cross-check.
    """
    service = InventoryService()
    requests = [InventoryRequest(n_tags=1, zones=1, seed=seed)
                for seed in range(10_000)]
    emitted = most_per_request = most_retained = 0
    for request in requests:
        service.handle(request)
        total = sum(service.obs.events.counts().values())
        most_per_request = max(most_per_request, total - emitted)
        emitted = total
        most_retained = max(most_retained, len(service.obs.events))
        assert len(service.obs.events.fields_of("cell_done")) \
            <= RETAINED_REQUESTS
    assert most_retained <= RETAINED_REQUESTS * most_per_request
    retained_keys = [event.fields["key"] for event in service.obs.events.events
                     if event.name == "request_start"]
    assert retained_keys \
        == [request.key() for request in requests[-RETAINED_REQUESTS:]]
    assert len(service.obs.events.fields_of("cell_done")) == RETAINED_REQUESTS

    stats = service.stats()
    assert stats["requests_served"] == 10_000
    for name in ("request_start", "request_done", "shard_plan",
                 "cell_done", "session"):
        assert stats["events"][name] == 10_000, name
    assert stats["metrics"]["counters"]["service.requests"] == 10_000
    assert stats["metrics"]["histograms"]["request.latency_s"]["count"] \
        == 10_000

    events = service.metrics_events()
    manifest = service.manifest()
    assert cross_check_manifest(events, manifest) == []
    assert len(manifest.cells) == RETAINED_REQUESTS
    assert manifest.event_count == len(events) <= most_retained + 1


def test_stats_accounting():
    service = InventoryService()
    service.handle(REQUEST)
    service.handle(REQUEST)
    stats = service.stats()
    assert stats["requests_served"] == 2
    assert stats["responses_cached"] == 1
    assert stats["distinct_requests"] == 1
    assert stats["events"]["request_start"] == 2
    assert stats["events"]["shard_plan"] == 1
    latency = stats["metrics"]["histograms"]["request.latency_s"]
    assert latency["count"] == 2
    assert latency["p99"] >= latency["p50"] >= 0.0


def test_uptime_ignores_wall_clock_steps(monkeypatch):
    """Durations run on the monotonic clock: stepping the wall clock back
    an hour after start leaves uptime and the manifest's wall time
    positive, while ``started_unix`` keeps the wall-clock timestamp."""
    service = InventoryService()
    started_unix = service.started_unix
    real_time = time.time
    monkeypatch.setattr(time, "time", lambda: real_time() - 3600.0)
    assert service.stats()["uptime_s"] > 0.0
    manifest = service.manifest()
    assert manifest.wall_time_s > 0.0
    assert manifest.started_unix == started_unix


def test_scalar_and_kernel_engines_both_serve():
    service = InventoryService()
    kernel = json.loads(service.handle(
        InventoryRequest(n_tags=200, zones=2, seed=3, engine="kernel")))
    scalar = json.loads(service.handle(
        InventoryRequest(n_tags=200, zones=2, seed=3, engine="scalar")))
    # Different engines are different cells: both succeed, keys differ.
    assert kernel["request_key"] != scalar["request_key"]
    assert kernel["facility"]["throughput"] > 0
    assert scalar["facility"]["throughput"] > 0


def test_adaptive_precision_request():
    service = InventoryService()
    payload = json.loads(service.handle(
        InventoryRequest(n_tags=400, zones=4, seed=8, runs=12,
                         precision=0.2)))
    assert payload["facility"]["throughput"] > 0
    stops = [event for event in service.obs.events.events
             if event.name == "planner_stop"]
    assert stops


COLD = InventoryRequest(n_tags=300, zones=3, seed=99)


class _BlockingService(InventoryService):
    """Counts cold computes of ``blocked`` and holds each one inside the
    compute lane until :attr:`release` is set."""

    def __init__(self, blocked: InventoryRequest) -> None:
        super().__init__()
        self.blocked = blocked
        self.entered = threading.Event()
        self.release = threading.Event()
        self.computes = 0

    def _compute(self, request, key):
        if request == self.blocked:
            self.computes += 1
            self.entered.set()
            self.release.wait(timeout=60)
        return super()._compute(request, key)


def _in_background(fn) -> tuple[threading.Thread, list]:
    """Run ``fn()`` on a daemon thread; its result lands in the list."""
    out: list = []
    thread = threading.Thread(target=lambda: out.append(fn()), daemon=True)
    thread.start()
    return thread, out


def test_warm_hits_run_while_a_cold_request_holds_the_lane():
    service = _BlockingService(COLD)
    warm = service.handle(REQUEST)
    cold, _ = _in_background(lambda: service.handle(COLD))
    assert service.entered.wait(timeout=60)
    latencies: list[float] = []

    def warm_reads() -> None:
        for _ in range(50):
            started = time.perf_counter()
            response = service.handle(REQUEST)
            latencies.append(time.perf_counter() - started)
            assert response == warm

    reader, _ = _in_background(warm_reads)
    reader.join(timeout=10)
    finished = not reader.is_alive()
    service.release.set()
    cold.join(timeout=60)
    assert finished, "warm reads waited behind the cold compute"
    assert len(latencies) == 50
    p99 = statistics.quantiles(latencies, n=100, method="inclusive")[98]
    assert p99 <= 0.050, f"warm p99 {1000 * p99:.1f} ms"
    stats = service.stats()
    assert stats["requests_served"] == 52
    assert stats["responses_cached"] == 50


class _WatchedLane:
    """A compute lane that counts the threads that reached it."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.arrivals = 0

    def __enter__(self) -> None:
        self.arrivals += 1
        self._lock.acquire()

    def __exit__(self, *exc_info) -> None:
        self._lock.release()


def test_concurrent_identical_cold_requests_compute_once():
    """Single flight: the second request misses the store, waits on the
    lane while the first computes, then finds the bytes on its re-check."""
    service = _BlockingService(COLD)
    service._lane = lane = _WatchedLane()
    first, first_out = _in_background(lambda: service.handle(COLD))
    assert service.entered.wait(timeout=60)
    second, second_out = _in_background(lambda: service.handle(COLD))
    deadline = time.monotonic() + 10
    while lane.arrivals < 2 and time.monotonic() < deadline:
        time.sleep(0.001)
    both_in_flight = lane.arrivals == 2
    service.release.set()
    first.join(timeout=60)
    second.join(timeout=60)
    assert both_in_flight, "the second request never reached the lane"
    assert service.computes == 1
    assert first_out == second_out and len(first_out) == 1
    assert first_out[0] == InventoryService().handle(COLD)
    stats = service.stats()
    assert stats["requests_served"] == 2
    assert stats["responses_cached"] == 1
    assert stats["events"]["shard_plan"] == 1


def test_telemetry_answers_while_a_cold_request_holds_the_lane():
    service = _BlockingService(COLD)
    service.handle(REQUEST)
    cold, _ = _in_background(lambda: service.handle(COLD))
    assert service.entered.wait(timeout=60)
    # The dump before the manifest, as the cross-check requires.
    reader, out = _in_background(lambda: (
        service.stats(), service.metrics_events(), service.manifest()))
    reader.join(timeout=10)
    answered = not reader.is_alive()
    service.release.set()
    cold.join(timeout=60)
    assert answered, "telemetry waited behind the cold compute"
    stats, events, manifest = out[0]
    assert stats["requests_served"] == 1
    assert stats["metrics"]["histograms"]["request.latency_s"]["count"] == 1
    assert cross_check_manifest(events, manifest) == []


class _FailsAfterComputeService(InventoryService):
    """Simulates in full, then raises, on its first cold request."""

    def __init__(self) -> None:
        super().__init__()
        self.failed = False

    def _compute(self, request, key):
        response = super()._compute(request, key)
        if not self.failed:
            self.failed = True
            raise RuntimeError("encode failed")
        return response


def test_a_failed_compute_stores_and_folds_nothing():
    service = _FailsAfterComputeService()
    with pytest.raises(RuntimeError, match="encode failed"):
        service.handle(REQUEST)
    stats = service.stats()
    assert stats["events"] == {}
    assert stats["metrics"]["counters"] == {}
    assert stats["requests_served"] == 0
    assert stats["distinct_requests"] == 0
    assert stats["response_store_bytes"] == 0
    assert len(service.obs.events) == 0
    # The lane is free again and the retry computes the usual bytes.
    assert service.handle(REQUEST) == InventoryService().handle(REQUEST)
    stats = service.stats()
    assert stats["requests_served"] == 1
    assert stats["events"]["request_start"] == 1
    assert stats["events"]["shard_plan"] == 1


def test_totals_stay_exact_under_contention():
    """More threads than cores and a short switch interval: every request
    is counted once, each address computes once, and every reply is the
    serial service's bytes."""
    requests = [InventoryRequest(n_tags=20, zones=2, seed=seed)
                for seed in range(4)]
    expected = {request.key(): InventoryService().handle(request)
                for request in requests}
    service = InventoryService()
    mismatches: list[InventoryRequest] = []

    def client(offset: int) -> None:
        for index in range(25):
            request = requests[(offset + index) % len(requests)]
            if service.handle(request) != expected[request.key()]:
                mismatches.append(request)

    threads = [threading.Thread(target=client, args=(offset,), daemon=True)
               for offset in range(8)]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
    total = len(threads) * 25
    stats = service.stats()
    assert stats["requests_served"] == total
    assert stats["responses_cached"] == total - len(requests)
    assert stats["events"]["request_start"] == total
    assert stats["events"]["request_done"] == total
    assert stats["events"]["shard_plan"] == len(requests)
    assert stats["metrics"]["counters"]["service.requests"] == total
    assert stats["metrics"]["histograms"]["request.latency_s"]["count"] \
        == total
    assert cross_check_manifest(service.metrics_events(),
                                service.manifest()) == []


def test_response_store_stays_inside_its_byte_bound(monkeypatch):
    """An LRU under ``RESPONSE_STORE_BYTES``: hits refresh recency, inserts
    evict, an evicted request recomputes to the same bytes, and the served
    and cached totals stay exact."""
    tiny = [InventoryRequest(n_tags=1, zones=1, seed=seed)
            for seed in range(40)]
    first = InventoryService().handle(tiny[0])
    bound = 3 * len(first)
    monkeypatch.setattr(core, "RESPONSE_STORE_BYTES", bound)
    service = InventoryService()
    service.handle(tiny[0])
    for request in tiny[1:]:
        service.handle(request)
        # Re-read after every insert, so never the least recent.
        assert service.handle(tiny[0]) == first
        assert service.stats()["response_store_bytes"] <= bound
    stats = service.stats()
    assert 2 <= stats["distinct_requests"] < len(tiny)
    assert stats["responses_cached"] == len(tiny) - 1
    # tiny[1] was evicted long ago: it recomputes, byte-identical.
    assert service.handle(tiny[1]) == InventoryService().handle(tiny[1])
    stats = service.stats()
    assert stats["requests_served"] == 2 * len(tiny)
    assert stats["responses_cached"] == len(tiny) - 1
    assert stats["metrics"]["counters"]["service.requests"] == 2 * len(tiny)
    assert stats["response_store_bytes"] <= bound


def test_config_validates_jobs():
    with pytest.raises(ValueError, match="jobs"):
        ServiceConfig(jobs=0)
