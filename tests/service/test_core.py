"""The service core: byte-identity, warm paths, dedup, observability."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.experiments.result_cache import ResultCache
from repro.obs.report import cross_check_manifest
from repro.service.core import InventoryService, ServiceConfig
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
    cells_after_cold = len(service.obs.cells)
    service.handle(REQUEST)
    assert len(service.obs.cells) == cells_after_cold  # no new simulation
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
    assert len(service.obs.cells) == payload["plan"]["distinct_cells"]


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
    assert "request.latency_s" in stats["metrics"]["histograms"]
    quantiles = service.latency_quantiles()
    assert quantiles["count"] == 2.0
    assert quantiles["p99_s"] >= quantiles["p50_s"] >= 0.0


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


def test_config_validates_jobs():
    with pytest.raises(ValueError, match="jobs"):
        ServiceConfig(jobs=0)
