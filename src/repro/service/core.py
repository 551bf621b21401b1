"""The inventory service core: deterministic request -> response bytes.

One :class:`InventoryService` owns the whole serving state: a result cache
shared across requests, a response store keyed by request content address,
a service-lifetime :class:`~repro.obs.scope.Observation` all request
telemetry folds into, and two locks.  The *compute lane* serializes cold
misses; the short *telemetry lock* guards the response store and the
service observation.  A warm hit (:meth:`InventoryService.serve_stored`)
and the telemetry surfaces (``/stats``, ``/healthz``, ``/metrics.jsonl``)
take only the telemetry lock, so they never wait behind a cold
simulation.

**Bounded telemetry.**  Counters and histograms cover the service's whole
life, and so do the ``/stats`` event counts.  Per-event records and the
executor's per-cell records are kept only for the last
:data:`RETAINED_REQUESTS` requests, so memory stays flat however many
requests are served; ``/metrics.jsonl`` and the ``/healthz`` manifest
both describe that window and still cross-check.

**Determinism contract.**  The response bytes are a pure function of the
request: the shard plan is closed-form (:mod:`repro.service.sharding`),
every zone cell's seed derives from the request seed by fixed strides, the
executor's parallel fan-out is bit-for-bit identical to serial at any
``jobs``, and the payload encodes through the canonical renderer with no
timestamps.  Cold requests compute under the compute lane, so concurrent
front-end workers cannot interleave two simulations -- the parallelism
budget lives inside the lane, in the executor's process pool.  A miss
re-checks the store once it holds the lane: an identical request that was
in flight meanwhile has stored its bytes by then, so each request address
is computed once (single flight) and the same request re-issued
concurrently or serially returns the stored bytes of its first
computation.

**Per-request collectors.**  A cold request computes into its own
:class:`~repro.obs.scope.Observation`, installed with
:func:`~repro.obs.scope.observe` on the lane thread only.  When the
response is ready, the collector folds into the service observation in one
bulk :meth:`~repro.obs.scope.Observation.merge` under the telemetry lock;
a request whose compute raises folds nothing and stores nothing.

**Warm path.**  Responses are stored by request address; zone cells are
stored in the content-addressed result cache.  A repeated request is
served from the response store without touching the executor; a *new*
request whose zone cells were already simulated (same population size,
channel, frame -- common across facility variants) is reassembled
from cache hits without re-simulation.  Both show up on the stats
endpoint (``service.responses.cached``, ``result_cache.hits``).  The
response store is an LRU bounded by :data:`RESPONSE_STORE_BYTES`; an
evicted request recomputes to the same bytes, so eviction cannot be seen
in responses.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field

from repro.core import Fcat
from repro.experiments.executor import CellSpec, execute_cells
from repro.experiments.planner import PlannerConfig
from repro.experiments.result_cache import ResultCache
from repro.obs import scope
from repro.obs.manifest import RunManifest, build_manifest
from repro.obs.scope import Observation
from repro.service.interference import DEFAULT_INTERFERENCE, InterferenceModel
from repro.service.requests import InventoryRequest, encode_response
from repro.service.sharding import ShardPlan, ZoneShard, plan_shards
from repro.sim.channel import PERFECT_CHANNEL, ChannelModel
from repro.sim.result import AggregateResult

__all__ = [
    "RESPONSE_STORE_BYTES",
    "RETAINED_REQUESTS",
    "SERVICE_CELL_STRIDE",
    "InventoryService",
    "ServiceConfig",
]

#: Seed stride decorrelating the distinct zone cells of one request
#: (sibling of the sweep grid strides in ``repro.experiments.runner``).
SERVICE_CELL_STRIDE = 100_003

#: Requests whose event and cell records the service keeps.
RETAINED_REQUESTS = 32

#: Bound on the response bytes the store keeps; least recently used
#: responses are evicted past it.
RESPONSE_STORE_BYTES = 64 * 1024 * 1024


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

    Zones with the same population size, frame and channel draw
    their sessions from the same distribution, so one simulated cell
    serves them all -- the facility totals stay unbiased and the request's
    compute cost scales with *distinct zone configurations* (a handful on
    a ring) instead of zone count.
    """
    return (zone.n_tags, zone.frame_size, zone.channel,
            request.lam, request.runs, request.engine, request.precision)


def _emit_start(obs: Observation, request: InventoryRequest,
                key: str) -> None:
    obs.emit("request_start", key=key, n_tags=request.n_tags,
             zones=request.zones, seed=request.seed)


class InventoryService:
    """Facility inventory serving with byte-identical warm and cold paths."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.obs = Observation()
        self.started_unix = time.time()
        self._started_monotonic = time.monotonic()
        #: Serializes cold computes.
        self._lane = threading.Lock()
        #: Guards the response store, ``self.obs`` and the counters below;
        #: never held across a compute.
        self._telemetry = threading.Lock()
        self._responses: OrderedDict[str, bytes] = OrderedDict()
        self._store_bytes = 0
        self._requests_served = 0
        self._responses_cached = 0
        #: Retained (event, cell) record counts at each retained request's
        #: start, oldest first.
        self._window: deque[tuple[int, int]] = deque()

    # -- request handling --------------------------------------------------

    def handle(self, request: InventoryRequest) -> bytes:
        """Serve one request; the single entry point for every front end.

        Thread-safe.  A store hit is served under the telemetry lock
        alone.  A miss takes the compute lane, re-checks the store (an
        identical request may have computed meanwhile), computes into a
        private collector, and folds it and stores the bytes before it
        leaves the lane.  The executor's ``jobs``-wide process pool
        provides the parallelism inside the lane.
        """
        started = time.perf_counter()
        key = request.key()
        stored = self._serve_stored(request, key, started)
        if stored is not None:
            return stored
        with self._lane:
            stored = self._serve_stored(request, key, started)
            if stored is not None:
                return stored
            collector = Observation()
            _emit_start(collector, request, key)
            with scope.observe(collector):
                response = self._compute(request, key)
            with self._telemetry:
                self._slide_window()
                self.obs.merge(collector)
                self._store(key, response)
                self._account(key, time.perf_counter() - started,
                              cached=False)
            return response

    def serve_stored(self, request: InventoryRequest) -> bytes | None:
        """Answer from the response store, or ``None`` on a miss.

        Takes the telemetry lock alone and never computes, so a front end
        can call it on its event loop and send only misses to
        :meth:`handle`.
        """
        return self._serve_stored(request, request.key(),
                                  time.perf_counter())

    def _serve_stored(self, request: InventoryRequest, key: str,
                      started: float) -> bytes | None:
        """Answer from the response store, or ``None`` on a miss."""
        with self._telemetry:
            stored = self._responses.get(key)
            if stored is None:
                return None
            self._responses.move_to_end(key)
            self._slide_window()
            _emit_start(self.obs, request, key)
            self._account(key, time.perf_counter() - started, cached=True)
            return stored

    def _store(self, key: str, response: bytes) -> None:
        """Insert a response; evict the least recently used past the bound."""
        self._responses[key] = response
        self._store_bytes += len(response)
        while self._store_bytes > RESPONSE_STORE_BYTES:
            _, evicted = self._responses.popitem(last=False)
            self._store_bytes -= len(evicted)

    def _slide_window(self) -> None:
        """Open a request's retention slot; forget the oldest past the cap."""
        self._window.append((len(self.obs.events), len(self.obs.cells)))
        if len(self._window) > RETAINED_REQUESTS:
            self._window.popleft()
            events, cells = self._window[0]
            self.obs.forget(events, cells)
            self._window = deque((e - events, c - cells)
                                 for e, c in self._window)

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
        """Cold path: shard, simulate distinct zone cells, assemble.

        Runs inside the request's collector scope (:func:`scope.active`).
        """
        obs = scope.active()
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
        obs.emit("shard_plan", key=key, zones=len(plan.zones),
                      phases=plan.n_phases, distinct_cells=len(specs),
                      interfered_zones=plan.interfered_zones)
        planner = None if request.precision is None \
            else PlannerConfig(precision=request.precision)
        results = execute_cells(specs, jobs=self.config.jobs,
                                cache=self.config.cache, planner=planner)
        for zone in plan.zones:
            obs.emit("shard_done", key=key, zone=zone.name,
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
        with self._telemetry:
            return build_manifest(
                self.obs,
                command=command or ["python", "-m", "repro.service"],
                started_unix=self.started_unix, jobs=self.config.jobs,
                wall_time_s=self._uptime_s())

    def _uptime_s(self) -> float:
        return time.monotonic() - self._started_monotonic

    def stats(self) -> dict:
        """Counters, histograms and cache accounting for ``/stats``."""
        with self._telemetry:
            snapshot = self.obs.metrics.snapshot()
            payload = {
                "requests_served": self._requests_served,
                "responses_cached": self._responses_cached,
                "distinct_requests": len(self._responses),
                "response_store_bytes": self._store_bytes,
                "uptime_s": self._uptime_s(),
                "jobs": self.config.jobs,
                "events": self.obs.events.counts(),
                "metrics": snapshot,
            }
            if self.config.cache is not None:
                payload["result_cache"] = self.config.cache.stats()
            return payload

    def metrics_events(self) -> list:
        """Dump the retained event window, closed by a ``metrics_snapshot``.

        The snapshot is emitted onto the service's own stream -- exactly
        the terminal line the CLI's JSONL sinks write -- so a manifest
        built *after* this dump (``/metrics.jsonl`` then ``/healthz``,
        with no interleaving traffic) cross-checks clean under
        ``python -m repro.obs.report``: same cell keys, same event count.
        Only the record list is copied under the telemetry lock; the
        ``Event`` list is built after it is released.
        """
        with self._telemetry:
            self.obs.emit("metrics_snapshot",
                          metrics=self.obs.metrics.snapshot())
            retained = self.obs.events.snapshot()
        return retained.events

    def latency_quantiles(self) -> dict[str, float]:
        """p50/p90/p99 request latency from the service histograms."""
        with self._telemetry:
            histogram = self.obs.metrics.histogram("request.latency_s")
            return {"count": float(histogram.n),
                    "mean_s": histogram.mean,
                    "p50_s": histogram.quantile(0.50),
                    "p90_s": histogram.quantile(0.90),
                    "p99_s": histogram.quantile(0.99)}
