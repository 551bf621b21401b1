"""End-to-end telemetry through the simulator and the sweep executor.

The load-bearing property: switching observability on changes *nothing*
about the computed results, and the telemetry itself is identical between
serial and parallel execution (modulo the timing-only instruments).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.baselines.dfsa import Dfsa
from repro.core.fcat import Fcat
from repro.core.scat import Scat
from repro.experiments import executor
from repro.experiments.executor import CellSpec, execute_cells
from repro.experiments.result_cache import ResultCache
from repro.obs.manifest import build_manifest
from repro.obs.scope import observe
from repro.sim.population import TagPopulation

SPECS = [
    CellSpec(protocol=Fcat(lam=2), n_tags=80, runs=3, seed=5),
    CellSpec(protocol=Scat(lam=2), n_tags=60, runs=3, seed=6),
    CellSpec(protocol=Dfsa(), n_tags=50, runs=3, seed=7),
]

#: Instruments whose values are wall-clock, not simulation, and therefore
#: legitimately differ between runs.
TIMING_HISTOGRAMS = ("chunk.duration_s", "chunk.queue_wait_s")


def _simulation_events(observation):
    """The deterministic slice of the stream: no timing fields."""
    picked = []
    for event in observation.events.events:
        if event.name in ("chunk_done", "pool_start", "metrics_snapshot"):
            continue
        fields = {key: value for key, value in event.fields.items()
                  if not key.endswith("_s")}
        picked.append((event.name, fields))
    return picked


def _comparable_snapshot(observation):
    """Drop the executor-mechanics instruments: chunking granularity and
    pool width scale with ``jobs`` by design; everything else may not."""
    snapshot = observation.metrics.snapshot()
    snapshot["gauges"].pop("executor.workers", None)
    snapshot["counters"].pop("executor.chunks", None)
    for name in TIMING_HISTOGRAMS:
        snapshot["histograms"].pop(name, None)
    return snapshot


def test_observability_does_not_change_results():
    baseline = execute_cells(SPECS)
    with observe():
        observed = execute_cells(SPECS)
    assert observed == baseline


@pytest.mark.parametrize("engine", ["scalar", "kernel"])
def test_parallel_telemetry_matches_serial(engine, monkeypatch):
    """Worker collectors fold back in chunk order.

    On the kernel engine each chunk is one lockstep batch whose sessions'
    frame events interleave, so chunk boundaries -- which follow ``jobs``
    -- order them: the serial reference runs the same ``jobs=3`` chunks
    in-process, and the parallel run's FCAT frame blocks (two sessions
    each at 8 runs per cell) cross the process pool.
    """
    specs = [dataclasses.replace(spec, engine=engine) for spec in SPECS]
    serial_jobs = 1
    if engine == "kernel":
        specs = [dataclasses.replace(spec, runs=8) for spec in specs]
        serial_jobs = 3
    with monkeypatch.context() as patch:
        # No pool context: every chunk runs in-process, in task order.
        patch.setattr(executor, "_pool_context", lambda: None)
        with observe() as serial:
            serial_results = execute_cells(specs, jobs=serial_jobs)
    with observe() as parallel:
        parallel_results = execute_cells(specs, jobs=3)
    assert parallel_results == serial_results
    assert _simulation_events(parallel) == _simulation_events(serial)
    assert serial.events.counts()["frame"] > 0
    # Histogram *totals* are float sums, and serial vs parallel partition
    # the observations into different chunks -- equal only to the ULP.
    # Everything discrete (counts, mins, maxes, counters) is exact.
    serial_snap = _comparable_snapshot(serial)
    parallel_snap = _comparable_snapshot(parallel)
    assert parallel_snap["counters"] == serial_snap["counters"]
    assert parallel_snap["gauges"] == serial_snap["gauges"]
    assert set(parallel_snap["histograms"]) == set(serial_snap["histograms"])
    for name, summary in serial_snap["histograms"].items():
        other = parallel_snap["histograms"][name]
        assert other["count"] == summary["count"]
        assert other["min"] == summary["min"]
        assert other["max"] == summary["max"]
        assert other["mean"] == pytest.approx(summary["mean"], rel=1e-12)
        for quantile in ("p50", "p90", "p99"):
            assert other[quantile] == pytest.approx(summary[quantile],
                                                    rel=1e-12)


def test_session_events_cover_every_protocol():
    with observe() as observation:
        execute_cells(SPECS)
    sessions = [e for e in observation.events.events if e.name == "session"]
    assert len(sessions) == sum(spec.runs for spec in SPECS)
    assert {e.fields["protocol"] for e in sessions} == \
        {"FCAT-2", "SCAT-2", "DFSA"}
    counters = observation.metrics.snapshot()["counters"]
    assert counters["sessions"] == len(sessions)
    assert counters["tags.read"] == sum(spec.n_tags * spec.runs
                                        for spec in SPECS)


def test_fcat_emits_frames_and_estimator_updates():
    rng = np.random.default_rng(3)
    population = TagPopulation.random(120, rng)
    with observe() as observation:
        Fcat(lam=2).read_all(population, np.random.default_rng(4))
    counts = observation.events.counts()
    assert counts["frame"] == counts["estimator_update"] >= 1
    frames = [e for e in observation.events.events if e.name == "frame"]
    for event in frames:
        assert 0.0 < event.fields["report_probability"] <= 1.0
    updates = [e for e in observation.events.events
               if e.name == "estimator_update"]
    for event in updates:
        assert event.fields["error"] == event.fields["estimate"] - \
            event.fields["actual_remaining"]


def test_warm_cache_run_still_emits_full_telemetry(tmp_path):
    """Satellite requirement: a fully cache-served run must emit cache_hit
    events carrying the cell fingerprints, plus cell_done/manifest records,
    instead of going observability-dark."""
    cache = ResultCache(tmp_path / "cache.json")
    cold = execute_cells(SPECS, cache=cache)
    cache.save()
    warm_cache = ResultCache(tmp_path / "cache.json")
    with observe() as observation:
        warm = execute_cells(SPECS, cache=warm_cache)
    assert warm == cold
    hits = [e for e in observation.events.events if e.name == "cache_hit"]
    assert [e.fields["key"] for e in hits] == \
        [spec.key() for spec in SPECS]
    done = [e for e in observation.events.events if e.name == "cell_done"]
    assert all(e.fields["cached"] for e in done)
    cells = build_manifest(observation, command=[], started_unix=0.0,
                           jobs=1, wall_time_s=0.0).cells
    assert [cell.key for cell in cells] == [spec.key() for spec in SPECS]
    assert all(cell.cached for cell in cells)
    counters = observation.metrics.snapshot()["counters"]
    assert counters["result_cache.hits"] == len(SPECS)
    assert counters["executor.cells.cached"] == len(SPECS)


def test_cache_invalidation_is_an_event(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text("{ not json")
    with observe() as observation:
        ResultCache(path)
    (event,) = [e for e in observation.events.events
                if e.name == "cache_invalidated"]
    assert event.fields["reason"] == "unparseable cache file"
