"""The inventory service core: deterministic request -> response bytes.

One :class:`InventoryService` owns the whole serving state: a result cache
shared across requests, a response store keyed by request content address,
a service-lifetime :class:`~repro.obs.scope.Observation` all request
telemetry folds into, and a single compute lane.

**Determinism contract.**  The response bytes are a pure function of the
request: the shard plan is closed-form (:mod:`repro.service.sharding`),
every zone cell's seed derives from the request seed by fixed strides, the
executor's parallel fan-out is bit-for-bit identical to serial at any
``jobs``, and the payload encodes through the canonical renderer with no
timestamps.  Requests compute under one lock (the *compute lane*), so
concurrent front-end workers cannot interleave two simulations -- the
parallelism budget lives inside the lane, in the executor's process pool
-- and the same request re-issued concurrently or serially returns the
stored bytes of its first computation.

**Warm path.**  Responses are stored by request address; zone cells are
stored in the content-addressed result cache.  A repeated request is
served from the response store without touching the executor; a *new*
request whose zone cells were already simulated (same population size,
channel, frame sizing -- common across facility variants) is reassembled
from cache hits without re-simulation.  Both show up on the stats
endpoint (``service.responses.cached``, ``result_cache.hits``).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.core import Fcat
from repro.experiments.executor import CellSpec, execute_cells
from repro.experiments.planner import PlannerConfig
from repro.experiments.result_cache import ResultCache
from repro.obs.manifest import RunManifest, build_manifest
from repro.obs.scope import Observation
from repro.service.interference import DEFAULT_INTERFERENCE, InterferenceModel
from repro.service.requests import InventoryRequest, encode_response
from repro.service.sharding import ShardPlan, ZoneShard, plan_shards
from repro.sim.channel import PERFECT_CHANNEL, ChannelModel
from repro.sim.result import AggregateResult

__all__ = [
    "SERVICE_CELL_STRIDE",
    "InventoryService",
    "ServiceConfig",
]

#: Seed stride decorrelating the distinct zone cells of one request
#: (sibling of the sweep grid strides in ``repro.experiments.runner``).
SERVICE_CELL_STRIDE = 100_003


@dataclass(frozen=True)
class ServiceConfig:
    """How the service computes: worker pool size and caching."""

    #: Process-pool width each request's executor fan-out may use.
    jobs: int = 1
    #: Shared cell cache; ``None`` computes every cell fresh.
    cache: ResultCache | None = field(default=None, compare=False)
    #: Interference calibration applied to every shard plan.
    interference: InterferenceModel = DEFAULT_INTERFERENCE

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")


def _zone_cell_signature(zone: ZoneShard, request: InventoryRequest) -> tuple:
    """What makes two zones' simulations interchangeable.

    Zones with the same population size, frame sizing and channel draw
    their sessions from the same distribution, so one simulated cell
    serves them all -- the facility totals stay unbiased and the request's
    compute cost scales with *distinct zone configurations* (a handful on
    a ring) instead of zone count.
    """
    return (zone.n_tags, zone.frame_size, zone.channel,
            request.lam, request.runs, request.engine, request.precision)


class InventoryService:
    """Facility inventory serving with byte-identical warm and cold paths."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.obs = Observation()
        self.started_unix = time.time()
        self._started_monotonic = time.monotonic()
        self._lock = threading.Lock()
        self._responses: dict[str, bytes] = {}
        self._requests_served = 0
        self._responses_cached = 0

    # -- request handling --------------------------------------------------

    def handle(self, request: InventoryRequest) -> bytes:
        """Serve one request; the single entry point for every front end.

        Thread-safe: the whole request holds the compute lane's lock, so
        concurrent callers serialize here and the executor's ``jobs``-wide
        process pool provides the actual parallelism.
        """
        started = time.perf_counter()
        key = request.key()
        with self._lock:
            self.obs.emit("request_start", key=key, n_tags=request.n_tags,
                          zones=request.zones, seed=request.seed)
            stored = self._responses.get(key)
            if stored is not None:
                elapsed = time.perf_counter() - started
                self._account(key, elapsed, cached=True)
                return stored
            response = self._compute(request, key)
            self._responses[key] = response
            elapsed = time.perf_counter() - started
            self._account(key, elapsed, cached=False)
            return response

    def _account(self, key: str, elapsed_s: float, cached: bool) -> None:
        self._requests_served += 1
        self.obs.count("service.requests")
        self.obs.observe_value("request.latency_s", elapsed_s)
        if cached:
            self._responses_cached += 1
            self.obs.count("service.responses.cached")
            self.obs.observe_value("request.warm_latency_s", elapsed_s)
        else:
            self.obs.observe_value("request.cold_latency_s", elapsed_s)
        self.obs.emit("request_done", key=key, elapsed_s=elapsed_s,
                      cached=cached)

    def _compute(self, request: InventoryRequest, key: str) -> bytes:
        """Cold path: shard, simulate distinct zone cells, assemble."""
        base = PERFECT_CHANNEL if request.channel == ChannelModel() \
            else request.channel
        plan = plan_shards(request.n_tags, request.zones,
                           capability=request.lam, overlap=request.overlap,
                           max_phases=request.max_phases, base_channel=base,
                           interference=self.config.interference)
        # Deduplicate interchangeable zones into distinct cells, in first-
        # appearance order so cell seeds are stable under zone reindexing.
        signatures: dict[tuple, int] = {}
        specs: list[CellSpec] = []
        zone_cell: dict[int, int] = {}
        for zone in plan.zones:
            signature = _zone_cell_signature(zone, request)
            if signature not in signatures:
                signatures[signature] = len(specs)
                specs.append(CellSpec(
                    protocol=Fcat(lam=request.lam,
                                  frame_size=zone.frame_size,
                                  initial_estimate=float(max(zone.n_tags,
                                                             1))),
                    n_tags=zone.n_tags,
                    runs=request.runs,
                    seed=request.seed + SERVICE_CELL_STRIDE * len(specs),
                    channel=zone.channel,
                    engine=request.engine,
                ))
            zone_cell[zone.index] = signatures[signature]
        self.obs.emit("shard_plan", key=key, zones=len(plan.zones),
                      phases=plan.n_phases, distinct_cells=len(specs),
                      interfered_zones=plan.interfered_zones)
        planner = None if request.precision is None \
            else PlannerConfig(precision=request.precision)
        from repro.obs import scope
        with scope.observe(self.obs):
            results = execute_cells(specs, jobs=self.config.jobs,
                                    cache=self.config.cache,
                                    planner=planner)
        for zone in plan.zones:
            self.obs.emit("shard_done", key=key, zone=zone.name,
                          n_tags=zone.n_tags, phase=zone.phase,
                          frame_size=zone.frame_size,
                          interference_load=zone.interference_load)
        payload = self._payload(request, key, plan, results, zone_cell)
        return encode_response(payload)

    @staticmethod
    def _payload(request: InventoryRequest, key: str, plan: ShardPlan,
                 results: list[AggregateResult],
                 zone_cell: dict[int, int]) -> dict:
        """Assemble the response: per-zone stats plus facility rollups."""
        zones_payload = []
        phase_durations = [0.0] * plan.n_phases
        for zone in plan.zones:
            cell = results[zone_cell[zone.index]]
            # The mean session length of this zone's reader, from the
            # cell's Monte-Carlo throughput (unique IDs per second).
            duration_s = zone.n_tags / cell.throughput_mean \
                if cell.throughput_mean > 0 else 0.0
            phase_durations[zone.phase] = max(phase_durations[zone.phase],
                                              duration_s)
            zones_payload.append({
                "name": zone.name,
                "n_tags": zone.n_tags,
                "exclusive_tags": zone.exclusive_tags,
                "phase": zone.phase,
                "frame_size": zone.frame_size,
                "interference_load": zone.interference_load,
                "throughput_mean": cell.throughput_mean,
                "throughput_std": cell.throughput_std,
                "total_slots_mean": cell.total_slots_mean,
                "resolved_mean": cell.resolved_mean,
                "runs": cell.runs,
                "estimated_duration_s": duration_s,
            })
        facility_read_s = sum(phase_durations)
        duplicates = sum(count for _, _, count in plan.overlap_pairs)
        return {
            "schema": "repro-inventory/1",
            "request": request.to_dict(),
            "request_key": key,
            "plan": {
                "zones": len(plan.zones),
                "phases": plan.n_phases,
                "interfered_zones": plan.interfered_zones,
                "distinct_cells": len(set(zone_cell.values())),
                "duplicate_coverage": duplicates,
            },
            "zones": zones_payload,
            "facility": {
                "unique_tags": plan.facility_tags,
                "phase_durations_s": phase_durations,
                "read_time_s": facility_read_s,
                "throughput": plan.facility_tags / facility_read_s
                if facility_read_s > 0 else 0.0,
            },
        }

    # -- observability surfaces --------------------------------------------

    def manifest(self, command: list[str] | None = None) -> RunManifest:
        """The provenance manifest of everything served so far."""
        with self._lock:
            return build_manifest(
                self.obs,
                command=command or ["python", "-m", "repro.service"],
                started_unix=self.started_unix, jobs=self.config.jobs,
                wall_time_s=self._uptime_s())

    def _uptime_s(self) -> float:
        return time.monotonic() - self._started_monotonic

    def stats(self) -> dict:
        """Counters, histograms and cache accounting for ``/stats``."""
        with self._lock:
            snapshot = self.obs.metrics.snapshot()
            payload = {
                "requests_served": self._requests_served,
                "responses_cached": self._responses_cached,
                "distinct_requests": len(self._responses),
                "uptime_s": self._uptime_s(),
                "jobs": self.config.jobs,
                "events": self.obs.events.counts(),
                "metrics": snapshot,
            }
            if self.config.cache is not None:
                payload["result_cache"] = self.config.cache.stats()
            return payload

    def metrics_events(self) -> list:
        """Dump the event stream, closed by a ``metrics_snapshot``.

        The snapshot is emitted onto the service's own stream -- exactly
        the terminal line the CLI's JSONL sinks write -- so a manifest
        built *after* this dump (``/metrics.jsonl`` then ``/healthz``,
        with no interleaving traffic) cross-checks clean under
        ``python -m repro.obs.report``: same cell keys, same event count.
        """
        with self._lock:
            self.obs.emit("metrics_snapshot",
                          metrics=self.obs.metrics.snapshot())
            return list(self.obs.events.events)

    def latency_quantiles(self) -> dict[str, float]:
        """p50/p90/p99 request latency from the service histograms."""
        with self._lock:
            histogram = self.obs.metrics.histogram("request.latency_s")
            return {"count": float(histogram.n),
                    "mean_s": histogram.mean,
                    "p50_s": histogram.quantile(0.50),
                    "p90_s": histogram.quantile(0.90),
                    "p99_s": histogram.quantile(0.99)}
