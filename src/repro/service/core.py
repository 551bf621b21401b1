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
life, and so do the ``/stats`` request and event counts.  Event records
are kept only for the last :data:`RETAINED_REQUESTS` requests, so memory
stays flat however many requests are served; ``/metrics.jsonl`` dumps that
window, and the ``/healthz`` manifest reads its cells from the window's
``cell_done`` events.

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
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from repro.core import Fcat
from repro.experiments.executor import CellSpec, execute_cells
from repro.experiments.planner import PlannerConfig
from repro.experiments.result_cache import ResultCache
from repro.obs import scope
from repro.obs.manifest import RunManifest, build_manifest
from repro.obs.scope import Observation
from repro.service.requests import (MAX_ZONES, InventoryRequest,
                                    encode_response, render_entry)
from repro.service.sharding import (ShardPlan, ZoneShape, plan_shards,
                                    zone_name)
from repro.sim.channel import PERFECT_CHANNEL
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

#: Requests whose event records the service keeps.
RETAINED_REQUESTS = 32

#: Bound on the response bytes the store keeps; least recently used
#: responses are evicted past it.
RESPONSE_STORE_BYTES = 64 * 1024 * 1024

#: A zone name no zone has, and how it renders: the slot in a zone
#: shape's rendered entry that each zone's own name fills.
_NAME_MARK = "\x00"
_NAME_MARK_JSON = encode_basestring_ascii(_NAME_MARK)

#: Zone names by index, and how they render, for every ring a request
#: may ask for (:data:`~repro.service.requests.MAX_ZONES`).
_ZONE_NAMES = tuple(map(zone_name, range(MAX_ZONES)))
_ZONE_NAMES_JSON = tuple(map(encode_basestring_ascii, _ZONE_NAMES))


@dataclass(frozen=True)
class ServiceConfig:
    """How the service computes: worker pool size and caching."""

    #: Process-pool width each request's executor fan-out may use.
    jobs: int = 1
    #: Shared cell cache; ``None`` computes every cell fresh.
    cache: ResultCache | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")


def _zone_cell_signature(shape: ZoneShape,
                         request: InventoryRequest) -> tuple:
    """What makes two zones' simulations interchangeable.

    Zones with the same population size, frame and channel draw
    their sessions from the same distribution, so one simulated cell
    serves them all -- the facility totals stay unbiased and the request's
    compute cost scales with *distinct zone configurations* (a handful on
    a ring) instead of zone count.
    """
    return (shape.n_tags, shape.frame_size, shape.channel,
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
        #: Guards the response store, ``self.obs`` and the window below;
        #: never held across a compute.
        self._telemetry = threading.Lock()
        self._responses: OrderedDict[str, bytes] = OrderedDict()
        self._store_bytes = 0
        #: Each retained request's first event position, oldest first,
        #: counting forgotten events.
        self._window: deque[int] = deque()

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
        events = self.obs.events
        self._window.append(events.forgotten + len(events))
        if len(self._window) > RETAINED_REQUESTS:
            self._window.popleft()
            events.forget(self._window[0] - events.forgotten)

    def _account(self, key: str, elapsed_s: float, cached: bool) -> None:
        self.obs.count("service.requests")
        self.obs.observe_value("request.latency_s", elapsed_s)
        if cached:
            self.obs.count("service.responses.cached")
            self.obs.observe_value("request.warm_latency_s", elapsed_s)
        else:
            self.obs.observe_value("request.cold_latency_s", elapsed_s)
        self.obs.emit("request_done", key=key, elapsed_s=elapsed_s,
                      cached=cached)

    def _compute(self, request: InventoryRequest, key: str) -> bytes:
        """Cold path: shard, simulate distinct zone cells, assemble.

        Runs inside the request's collector scope (:func:`scope.active`).
        Everything but the zone names is worked out once per zone shape.
        """
        obs = scope.active()
        base = PERFECT_CHANNEL if request.channel == PERFECT_CHANNEL \
            else request.channel
        plan = plan_shards(request.n_tags, request.zones,
                           capability=request.lam, overlap=request.overlap,
                           max_phases=request.max_phases, base_channel=base)
        # Deduplicate interchangeable shapes into distinct cells.  Shapes
        # come in order of their first zone, so cells are numbered in
        # first-appearance order over the zones and cell seeds are stable
        # under zone reindexing.
        signatures: dict[tuple, int] = {}
        specs: list[CellSpec] = []
        shape_cells: list[int] = []
        for shape in plan.shapes:
            signature = _zone_cell_signature(shape, request)
            cell = signatures.get(signature)
            if cell is None:
                cell = signatures[signature] = len(specs)
                specs.append(CellSpec(
                    protocol=Fcat(lam=request.lam,
                                  frame_size=shape.frame_size,
                                  initial_estimate=float(
                                      max(shape.n_tags, 1))),
                    n_tags=shape.n_tags,
                    runs=request.runs,
                    seed=request.seed + SERVICE_CELL_STRIDE * cell,
                    channel=shape.channel,
                    engine=request.engine,
                ))
            shape_cells.append(cell)
        interfered = plan.interfered_zones
        obs.emit("shard_plan", key=key, zones=request.zones,
                 phases=plan.n_phases, distinct_cells=len(specs),
                 interfered_zones=interfered)
        planner = None if request.precision is None \
            else PlannerConfig(precision=request.precision)
        results = execute_cells(specs, jobs=self.config.jobs,
                                cache=self.config.cache, planner=planner)
        # One event dict per shape, copied for each zone with its name.
        done = [{"key": key, "zone": "", "n_tags": shape.n_tags,
                 "phase": shape.phase, "frame_size": shape.frame_size,
                 "interference_load": shape.interference_load}
                for shape in plan.shapes]
        obs.events.append_all("shard_done", [
            dict(done[shape], zone=name)
            for name, shape in zip(_ZONE_NAMES, plan.zone_shapes)])
        payload, zones = self._payload(request, key, plan, results,
                                       shape_cells, interfered)
        return encode_response(payload, zones)

    @staticmethod
    def _payload(request: InventoryRequest, key: str, plan: ShardPlan,
                 results: list[AggregateResult], shape_cells: list[int],
                 interfered: int) -> tuple[dict, list[str]]:
        """Assemble the response: facility rollups plus rendered zones.

        Zones of one shape differ only in their names, so each shape is
        rendered once with a placeholder name that each zone's fills.
        """
        templates = []
        phase_durations = [0.0] * plan.n_phases
        for shape, cell_index in zip(plan.shapes, shape_cells):
            cell = results[cell_index]
            # The mean session length of this zone's reader, from the
            # cell's Monte-Carlo throughput (unique IDs per second).
            duration_s = shape.n_tags / cell.throughput_mean \
                if cell.throughput_mean > 0 else 0.0
            head, _, tail = render_entry({
                "name": _NAME_MARK,
                "n_tags": shape.n_tags,
                "exclusive_tags": shape.exclusive_tags,
                "phase": shape.phase,
                "frame_size": shape.frame_size,
                "interference_load": shape.interference_load,
                "throughput_mean": cell.throughput_mean,
                "throughput_std": cell.throughput_std,
                "total_slots_mean": cell.total_slots_mean,
                "resolved_mean": cell.resolved_mean,
                "runs": cell.runs,
                "estimated_duration_s": duration_s,
            }).partition(_NAME_MARK_JSON)
            templates.append((head, tail))
            if duration_s > phase_durations[shape.phase]:
                phase_durations[shape.phase] = duration_s
        zones = list(map(str.join, _ZONE_NAMES_JSON,
                         map(templates.__getitem__, plan.zone_shapes)))
        facility_read_s = sum(phase_durations)
        duplicates = sum(map(itemgetter(2), plan.overlap_pairs))
        return {
            "schema": "repro-inventory/1",
            "request": request.to_dict(),
            "request_key": key,
            "plan": {
                "zones": request.zones,
                "phases": plan.n_phases,
                "interfered_zones": interfered,
                "distinct_cells": len(results),
                "duplicate_coverage": duplicates,
            },
            "facility": {
                "unique_tags": plan.facility_tags,
                "phase_durations_s": phase_durations,
                "read_time_s": facility_read_s,
                "throughput": plan.facility_tags / facility_read_s
                if facility_read_s > 0 else 0.0,
            },
        }, zones

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
            counters = snapshot["counters"]
            payload = {
                "requests_served": int(counters.get("service.requests", 0)),
                "responses_cached": int(
                    counters.get("service.responses.cached", 0)),
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
