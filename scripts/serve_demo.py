#!/usr/bin/env python
"""Load-drive the inventory service over a facility-scale population.

Boots the asyncio front end in-process on a free port, sustains a burst of
inventory requests against it (cold pass over distinct facilities, then a
warm pass re-issuing every one, a concurrent duplicate volley, and the warm
set once more while one large cold request computes), and reports request
latency quantiles from the service's own ``repro.obs`` histograms -- the
p99 comes off the ``/stats`` endpoint, not from client-side stopwatches.

The driver also *checks* while it drives:

* byte-identity: the warm pass must return exactly the cold pass's bytes
  for every request, and the concurrent volley one single distinct
  response -- the determinism contract, observed over the real socket.
  The burst's last request sets ``max_phases`` to 1, so its zones read
  on interference channels and the contract covers impaired cells too;
* warm accounting: re-issued requests must be served from the response
  store (``responses_cached`` on ``/stats``), never re-simulated;
* warm during cold: ``warm_during_cold`` in the report is true only when
  every warm reply re-issued while the large cold request was in flight
  arrived, byte-identical to its cold-pass reply, before that request
  finished computing (``/stats`` read after the last warm reply does not
  count it yet) -- an ordering check, with no wall-clock threshold.  The
  large request is sized from probe requests of growing size until one
  lasts ``LARGE_MARGIN`` times the settle time plus the warm pass, so
  the warm set has time to come back first; a service whose warm path
  waits for the compute lane reports false;
* artefact coherence: with ``--metrics-out``/``--manifest-out`` the event
  stream and manifest are fetched (in that order) from the live endpoints
  and must cross-check clean under ``repro.obs.report``;
* footprint: ``scipy_loaded`` in the report says whether any ``scipy``
  module was imported by the end of the demo (the service runs
  in-process; its reader is closed-form, so this should be false).

Default scale is the ISSUE's facility: 1M+ tags over 20 zones.  ``--smoke``
shrinks everything to CI size.

    PYTHONPATH=src python scripts/serve_demo.py --smoke
    PYTHONPATH=src python scripts/serve_demo.py --n-tags 1000000 --zones 20
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.executor import default_jobs  # noqa: E402
from repro.obs.events import read_jsonl  # noqa: E402
from repro.obs.manifest import read_manifest  # noqa: E402
from repro.obs.report import cross_check_manifest  # noqa: E402
from repro.service.client import http_get, post_inventory  # noqa: E402
from repro.service.core import InventoryService, ServiceConfig  # noqa: E402
from repro.service.frontend import ServiceFrontend  # noqa: E402
from repro.service.requests import MAX_N_TAGS, MAX_RUNS  # noqa: E402

#: How long the large cold request has to reach the compute lane before
#: the warm set is re-issued.
SETTLE_S = 0.05
#: The large cold request must last this many times the settle time plus
#: the warm pass, as measured on a probe request of the same size.
LARGE_MARGIN = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="drive request traffic against the inventory service")
    parser.add_argument("--n-tags", type=int, default=1_048_576,
                        help="facility tag population (default 1048576)")
    parser.add_argument("--zones", type=int, default=20,
                        help="reader zones the population shards across "
                             "(default 20)")
    parser.add_argument("--requests", type=int, default=8,
                        help="distinct facility requests in the burst "
                             "(default 8; seeds count up from --seed)")
    parser.add_argument("--concurrency", type=int, default=4,
                        help="in-flight requests during each pass")
    parser.add_argument("--duplicates", type=int, default=6,
                        help="concurrent duplicate volley size for the "
                             "byte-identity check")
    parser.add_argument("--jobs", type=int, default=0,
                        help="executor workers per request (0 = all cores)")
    parser.add_argument("--seed", type=int, default=20100562)
    parser.add_argument("--overlap", type=float, default=0.15)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: small facility, short burst")
    parser.add_argument("--json-out", type=Path, default=None,
                        help="write the load-report JSON here")
    parser.add_argument("--metrics-out", type=Path, default=None,
                        help="dump GET /metrics.jsonl to this file")
    parser.add_argument("--manifest-out", type=Path, default=None,
                        help="dump the GET /healthz manifest to this file")
    return parser


def _request_body(args: argparse.Namespace, seed: int) -> dict:
    return {"n_tags": args.n_tags, "zones": args.zones, "seed": seed,
            "overlap": args.overlap}


async def _bounded_gather(limit: int, coroutines: list) -> list:
    semaphore = asyncio.Semaphore(limit)

    async def bounded(coroutine):
        async with semaphore:
            return await coroutine

    return await asyncio.gather(*[bounded(c) for c in coroutines])


async def _cold_requests_done(host: str, port: int) -> int:
    """Cold requests the service has answered, from ``/stats``."""
    _, body = await http_get(host, port, "/stats")
    stats = json.loads(body)
    return stats["requests_served"] - stats["responses_cached"]


async def _size_large_request(host: str, port: int,
                              args: argparse.Namespace, seed: int,
                              target_s: float) -> tuple[dict, float]:
    """A cold request's body sized to last at least ``target_s``.

    The request runs the scalar engine, the per-slot reference: per
    second of compute it leaves far less telemetry than the kernel, so
    the artefact dumps stay small.  Probes start at the facility's size
    with one run, each on a fresh seed.  While a probe answers sooner
    than ``target_s``, the next one takes twice the runs (up to
    ``MAX_RUNS``), then twice the tags (up to ``MAX_N_TAGS``).  The body
    returned repeats the last probe's size on the next fresh seed, so it
    does the work of a probe measured to last long enough.  Returns it
    with that probe's time.
    """
    runs, n_tags = 1, args.n_tags
    while True:
        body = {**_request_body(args, seed), "n_tags": n_tags, "runs": runs,
                "engine": "scalar"}
        started = time.perf_counter()
        status, _ = await post_inventory(host, port, body)
        probe_s = time.perf_counter() - started
        assert status == 200, f"probe request failed with {status}"
        seed += 1
        if probe_s >= target_s or n_tags == MAX_N_TAGS:
            return {**body, "seed": seed}, probe_s
        if runs < MAX_RUNS:
            runs = min(2 * runs, MAX_RUNS)
        else:
            n_tags = min(2 * n_tags, MAX_N_TAGS)


async def drive(frontend: ServiceFrontend,
                args: argparse.Namespace) -> dict:
    host, port = frontend.host, frontend.port
    bodies = [_request_body(args, args.seed + index)
              for index in range(args.requests)]
    # One phase for the whole ring: overlapping zones read at the same
    # time, so the last request's zones run on interference channels and
    # the byte-identity checks below cover impaired kernel cells too.
    bodies[-1]["max_phases"] = 1

    started = time.perf_counter()
    cold = await _bounded_gather(args.concurrency, [
        post_inventory(host, port, body) for body in bodies])
    cold_s = time.perf_counter() - started
    for status, _ in cold:
        assert status == 200, f"cold request failed with {status}"
    print(f"  cold pass: {len(bodies)} requests in {cold_s:.2f}s",
          file=sys.stderr)

    started = time.perf_counter()
    warm = await _bounded_gather(args.concurrency, [
        post_inventory(host, port, body) for body in bodies])
    warm_s = time.perf_counter() - started
    byte_identical = all(w == c for (_, c), (_, w) in zip(cold, warm))
    assert byte_identical, "warm responses diverged from cold responses"
    print(f"  warm pass: {len(bodies)} requests in {warm_s:.2f}s, "
          f"byte-identical to cold", file=sys.stderr)

    volley = await asyncio.gather(*[
        post_inventory(host, port, bodies[0])
        for _ in range(args.duplicates)])
    distinct = {body for _, body in volley}
    assert len(distinct) == 1, "concurrent duplicates diverged"
    assert distinct == {cold[0][1]}, "volley diverged from cold response"
    print(f"  concurrent volley: {args.duplicates} duplicates, "
          "1 distinct response", file=sys.stderr)

    target_s = LARGE_MARGIN * (SETTLE_S + warm_s)
    large, probe_s = await _size_large_request(
        host, port, args, args.seed + args.requests, target_s)
    computed = await _cold_requests_done(host, port)
    large_task = asyncio.ensure_future(post_inventory(host, port, large))
    await asyncio.sleep(SETTLE_S)  # let it reach the compute lane
    during = await _bounded_gather(args.concurrency, [
        post_inventory(host, port, body) for body in bodies])
    # The service accounts a cold request before it leaves the compute
    # lane, so if /stats does not count the large one yet, its compute
    # was still running when the last warm reply arrived.
    warm_during_cold = await _cold_requests_done(host, port) == computed \
        and all(w == c for (_, c), (_, w) in zip(cold, during))
    status, _ = await large_task
    assert status == 200, f"large cold request failed with {status}"
    print(f"  warm during cold ({len(bodies)} warm replies, all before a "
          f"{large['n_tags']}-tag, {large['runs']}-run cold request "
          f"finished computing, byte-identical; its probe took "
          f"{probe_s:.3f}s, target {target_s:.3f}s): {warm_during_cold}",
          file=sys.stderr)

    _, stats_body = await http_get(host, port, "/stats")
    stats = json.loads(stats_body)
    expected_warm = 2 * len(bodies) + args.duplicates
    assert stats["responses_cached"] == expected_warm, \
        (f"expected {expected_warm} cache-served responses, "
         f"stats says {stats['responses_cached']}")

    latency = stats["metrics"]["histograms"]["request.latency_s"]
    cold_hist = stats["metrics"]["histograms"]["request.cold_latency_s"]
    facility = json.loads(cold[0][1])["facility"]
    report = {
        "n_tags": args.n_tags,
        "zones": args.zones,
        "requests": stats["requests_served"],
        "responses_cached": stats["responses_cached"],
        "cold_pass_s": round(cold_s, 4),
        "warm_pass_s": round(warm_s, 4),
        "byte_identical": byte_identical,
        "warm_during_cold": warm_during_cold,
        "large_request": {"n_tags": large["n_tags"], "runs": large["runs"],
                          "probe_s": round(probe_s, 4),
                          "target_s": round(target_s, 4)},
        "latency": {key: round(latency[key], 6)
                    for key in ("count", "mean", "p50", "p90", "p99")},
        "cold_latency": {key: round(cold_hist[key], 6)
                         for key in ("count", "mean", "p50", "p90", "p99")},
        "facility_read_time_s": round(facility["read_time_s"], 2),
        "facility_throughput": round(facility["throughput"], 1),
    }

    if args.metrics_out or args.manifest_out:
        # Order matters: the metrics dump closes with a snapshot the
        # manifest must count for repro.obs.report to cross-check clean.
        _, metrics_body = await http_get(host, port, "/metrics.jsonl")
        _, health_body = await http_get(host, port, "/healthz")
        if args.metrics_out:
            args.metrics_out.write_bytes(metrics_body)
        if args.manifest_out:
            manifest = json.loads(health_body)["manifest"]
            args.manifest_out.write_text(
                json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
        if args.metrics_out and args.manifest_out:
            problems = cross_check_manifest(
                read_jsonl(args.metrics_out),
                read_manifest(args.manifest_out))
            assert not problems, f"artefact cross-check: {problems}"
            print(f"  artefacts cross-check clean: {args.metrics_out}, "
                  f"{args.manifest_out}", file=sys.stderr)
    # Lifetime event counts, read after any dump so they include its
    # closing snapshot: every record a dump retained is counted here.
    _, stats_body = await http_get(host, port, "/stats")
    report["events"] = json.loads(stats_body)["events"]
    return report


async def serve_and_drive(args: argparse.Namespace,
                          service: InventoryService | None = None) -> dict:
    """Serve ``service`` (by default a fresh one, ``--jobs`` wide) on a
    free port and drive it."""
    if service is None:
        jobs = args.jobs if args.jobs > 0 else default_jobs()
        service = InventoryService(ServiceConfig(jobs=jobs))
    frontend = ServiceFrontend(service, port=0,
                               workers=max(args.concurrency, 2))
    await frontend.start()
    print(f"  service on http://{frontend.host}:{frontend.port} "
          f"(jobs={service.config.jobs})", file=sys.stderr)
    try:
        return await drive(frontend, args)
    finally:
        await frontend.close()


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.smoke:
        args.n_tags = min(args.n_tags, 20_000)
        args.zones = min(args.zones, 16)
        args.requests = min(args.requests, 4)
        args.duplicates = min(args.duplicates, 4)
    if args.n_tags < args.zones:
        raise SystemExit("--n-tags must be >= --zones")
    print(f"[serve_demo] facility: {args.n_tags} tags, {args.zones} zones, "
          f"{args.requests} distinct requests", file=sys.stderr)
    report = asyncio.run(serve_and_drive(args))
    report["scipy_loaded"] = any(name == "scipy" or name.startswith("scipy.")
                                 for name in sys.modules)
    if args.json_out:
        args.json_out.write_text(json.dumps(report, indent=2) + "\n",
                                 encoding="utf-8")
    print(f"[serve_demo] p99 latency {report['latency']['p99']:.4f}s "
          f"(cold p99 {report['cold_latency']['p99']:.4f}s) over "
          f"{report['requests']} requests, "
          f"{report['responses_cached']} cache-served; facility read "
          f"{report['facility_read_time_s']}s at "
          f"{report['facility_throughput']} tags/s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
