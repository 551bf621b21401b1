"""The service workloads: closed-loop HTTP load on a service subprocess.

The server is ``python -m repro.service --port 0 --jobs 1 --workers 2``
with a fresh result-cache file, in its own process so client and server
never share an interpreter lock, and pinned to one CPU, where the
calibration helper of :mod:`speed` runs too.  Clients are threads of this
process speaking HTTP/1.1 over plain sockets, one request per connection
(the service closes each), timed with ``perf_counter`` from before the
connect to the last byte of the reply.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import select
import signal
import socket
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter, sleep

import speed
import tracing
from common import Tally, quantile_ms

ZONES = (16, 20, 24)
ZONE_LCM = math.lcm(*ZONES)
LAMS = (2, 3, 4)
OVERLAPS = (0.1, 0.15, 0.2)
#: Distinct facilities per block, on a grid over log2(n_tags) in [16, 20).
BLOCK_BASES = 12
#: Grid points whose facility also gets a zone-sharing variant (one
#: request in four): same seed, tags and zones doubled, so every zone
#: cell is a result-cache hit.
VARIANT_POINTS = (2, 5, 8, 10)
#: Block ``b`` shifts its grid by ``b`` times this (mod 1), so successive
#: blocks fill the size range densely.
GRID_SHIFT = 0.6180339887
#: Simulating requests a run carries at least.
MIN_COLD = 100
#: ``--seconds`` buys one block per this many seconds: the work of a run
#: is fixed by ``--seconds``, so every run of a workload serves the same
#: requests (peak RSS, which grows with every request served, included).
BLOCK_SECONDS = 2.5
#: A run stops after the block that passes this, whatever it was asked.
MAX_SECONDS = 120.0
#: Client B's think time between warm requests (service-mixed).
THINK_S = 0.010
#: Requests in client B's warm set (service-mixed), 2^16 tags each.
WARM_SET = 8
COLD_STREAM, WARM_STREAM = 1, 2
SCHEMA = "repro-inventory/1"
START_TIMEOUT_S = 60.0


def facility_tags(point: float) -> int:
    """Tags at grid point ``point`` in [0, 1): 2^16 .. 2^20, small-heavy.

    A multiple of every zone count, so all zones of a facility are equal
    and it simulates one cell: a request's cost then grows smoothly with
    its size instead of jumping with the remainder's extra cells.
    """
    return ZONE_LCM * round(2 ** (16 + 4 * point * point) / ZONE_LCM)


def cold_blocks(seed: int, stream: int):
    """Endless blocks of distinct requests: facilities and their variants.

    Items are ``(request, variant)``.  Block ``b`` always holds the same
    facilities -- tag counts on a grid shifted by ``b``, zone count, λ and
    overlap rotating with ``b`` -- so runs differ only in request seeds
    and order, and the latency quantiles stay steady from seed to seed.
    Each variant comes after its base.  Streams with different ``stream``
    numbers never share a request seed.
    """
    rng = random.Random(seed * 1_000_003 + stream)
    block = 0
    while True:
        shift = block * GRID_SHIFT % 1.0
        bases = [{"n_tags": facility_tags((i + shift) / BLOCK_BASES),
                  "zones": ZONES[(i + block) % 3],
                  "seed": (stream << 40) + rng.getrandbits(40),
                  "lam": LAMS[(i // 3 + block) % 3],
                  "overlap": OVERLAPS[(i // 2 + block) % 3]}
                 for i in range(BLOCK_BASES)]
        order = [(base, False) for base in bases]
        rng.shuffle(order)
        for point in VARIANT_POINTS:
            base = bases[point]
            at = rng.randint(order.index((base, False)) + 1, len(order))
            order.insert(at, ({**base, "n_tags": 2 * base["n_tags"],
                               "zones": 2 * base["zones"]}, True))
        yield order
        block += 1


def warm_set(seed: int) -> list[dict]:
    rng = random.Random(seed * 1_000_003 + WARM_STREAM)
    return [{"n_tags": 1 << 16, "zones": ZONES[i % 3],
             "seed": (WARM_STREAM << 40) + rng.getrandbits(40),
             "lam": LAMS[i % 3], "overlap": OVERLAPS[i % 3]}
            for i in range(WARM_SET)]


def exchange(port: int, head: bytes, body: bytes = b""
             ) -> tuple[int, bytes, float, float]:
    """One HTTP exchange: ``(status, body bytes, perf_counter at the start,
    seconds to last byte)``."""
    started = perf_counter()
    with socket.create_connection(("127.0.0.1", port)) as sock:
        sock.sendall(head + body)
        chunks = []
        while chunk := sock.recv(1 << 16):
            chunks.append(chunk)
    elapsed = perf_counter() - started
    raw = b"".join(chunks)
    header, _, payload = raw.partition(b"\r\n\r\n")
    parts = header.split(b" ", 2)
    status = int(parts[1]) if len(parts) > 1 and parts[1].isdigit() else 0
    return status, payload, started, elapsed


class Server:
    """One service subprocess pinned to ``cpu``; traced when ``spans_path``
    is given."""

    def __init__(self, root: Path, workdir: Path, name: str, cpu: int,
                 spans_path: Path | None = None) -> None:
        self.cache_path = workdir / f"{name}-results.json"
        service_args = ["--port", "0", "--jobs", "1", "--workers", "2",
                        "--result-cache", str(self.cache_path)]
        if spans_path is None:
            command = [sys.executable, "-m", "repro.service", *service_args]
        else:
            command = [sys.executable,
                       str(root / "perfbench" / "traced_server.py"),
                       str(spans_path), *service_args]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        #: Client-side seconds of every POST this server answered.
        self.post_seconds: list[float] = []
        self._lock = threading.Lock()
        started = self.started = perf_counter()
        self.process = subprocess.Popen(command, cwd=root, env=env,
                                        stdout=subprocess.PIPE, text=True)
        try:
            os.sched_setaffinity(self.process.pid, {cpu})
            self.port = self._read_port()
            while True:
                try:
                    if self.get("/healthz")[0] == 200:
                        break
                except ConnectionError:
                    pass
                if perf_counter() - started > START_TIMEOUT_S \
                        or self.process.poll() is not None:
                    raise RuntimeError("service never answered /healthz")
                sleep(0.005)
            #: Process start to the first answered ``/healthz``.
            self.setup_s = perf_counter() - started
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        ready, _, _ = select.select([self.process.stdout], [], [],
                                    START_TIMEOUT_S)
        line = self.process.stdout.readline() if ready else ""
        match = re.search(r"http://[\d.]+:(\d+)", line)
        if match is None:
            raise RuntimeError(f"service did not start: {line!r}")
        return int(match.group(1))

    def get(self, path: str) -> tuple[int, bytes, float, float]:
        head = f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n" \
               "Connection: close\r\n\r\n"
        return exchange(self.port, head.encode("ascii"))

    def post(self, request: dict) -> tuple[int, bytes, float, float]:
        body = json.dumps(request).encode("utf-8")
        head = ("POST /inventory HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n").encode("ascii")
        status, payload, started, elapsed = exchange(self.port, head, body)
        with self._lock:
            self.post_seconds.append(elapsed)
        return status, payload, started, elapsed

    def stats(self) -> dict:
        status, payload, *_ = self.get("/stats")
        return json.loads(payload) if status == 200 else {}

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+)", status).group(1)) / 1024.0

    def stop(self) -> None:
        """SIGINT (the service's clean shutdown), then kill after 30 s."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def check_cold(tally: Tally, request: dict, status: int,
               payload: bytes) -> dict | None:
    """Status 200, the response schema and every facility tag accounted."""
    try:
        reply = json.loads(payload) if status == 200 else None
    except ValueError:
        reply = None
    ok = reply is not None and reply.get("schema") == SCHEMA \
        and reply.get("facility", {}).get("unique_tags") == request["n_tags"]
    tally.check(ok, f"cold reply {status} for {request}")
    return reply if ok else None


class ColdRecord:
    """One distinct request: what was sent, what came back, when it started
    and how long it took; ``variant`` marks one served from the result
    cache."""

    def __init__(self, request: dict, payload: bytes, started: float,
                 seconds: float, reply: dict | None,
                 variant: bool = False) -> None:
        self.request = request
        self.variant = variant
        self.payload = payload
        self.started = started
        self.seconds = seconds
        self.zones = reply["plan"]["zones"] if reply else 0
        self.cells = reply["plan"]["distinct_cells"] if reply else 0
        self.sessions = sum(zone["runs"] for zone in reply["zones"]) \
            if reply else 0


def block_count(seconds: float) -> int:
    return max(math.ceil(seconds / BLOCK_SECONDS),
               math.ceil(MIN_COLD / BLOCK_BASES))


def cold_loop(server: Server, blocks, tally: Tally, seconds: float,
              calibration: speed.Calibration) -> list[ColdRecord]:
    """The run's blocks of distinct requests, each followed by one
    calibration sample on the server's CPU (about 3 ms)."""
    records: list[ColdRecord] = []
    loop_started = perf_counter()
    for _ in range(block_count(seconds)):
        for request, variant in next(blocks):
            status, payload, started, elapsed = server.post(request)
            reply = check_cold(tally, request, status, payload)
            records.append(ColdRecord(request, payload, started, elapsed,
                                      reply, variant))
            calibration.sample()
        if perf_counter() - loop_started > MAX_SECONDS:
            break
    return records


def repost(server: Server, record: ColdRecord,
           tally: Tally) -> tuple[float, float]:
    """Re-post a served request; its reply must be byte-identical.
    Returns ``(perf_counter at the start, seconds)``."""
    status, payload, started, seconds = server.post(record.request)
    tally.check(status == 200 and payload == record.payload,
                f"warm reply {status} differs for {record.request}")
    return started, seconds


# -- the two workloads -------------------------------------------------------

def run_cold(server: Server, seed: int, seconds: float, tally: Tally,
             calibration: speed.Calibration) -> dict:
    """One client, distinct requests; the variants are its warm samples."""
    stream = cold_loop(server, cold_blocks(seed, COLD_STREAM), tally,
                       seconds, calibration)
    return {"stream": stream,
            "warm": [(r.started, r.seconds) for r in stream if r.variant]}


def run_mixed(server: Server, seed: int, seconds: float, tally: Tally,
              calibration: speed.Calibration) -> dict:
    """Client A: cold back to back.  Client B: warm set, 10 ms think time."""
    warm_records = []
    for request in warm_set(seed):  # the untimed warm-up
        status, payload, started, elapsed = server.post(request)
        reply = check_cold(tally, request, status, payload)
        warm_records.append(ColdRecord(request, payload, started, elapsed,
                                       reply))
    done = threading.Event()
    out: dict = {}
    warm: list[tuple[float, float]] = []
    errors: list[BaseException] = []

    def client_a() -> None:
        try:
            out["stream"] = cold_loop(server, cold_blocks(seed, COLD_STREAM),
                                      tally, seconds, calibration)
        finally:
            done.set()

    def client_b() -> None:
        index = 0
        while not done.is_set():
            warm.append(repost(
                server, warm_records[index % len(warm_records)], tally))
            index += 1
            sleep(THINK_S)

    def guarded(client):
        def run() -> None:
            try:
                client()
            except Exception as error:  # re-raised on the main thread
                errors.append(error)
        return run

    threads = [threading.Thread(target=guarded(client_a), daemon=True),
               threading.Thread(target=guarded(client_b), daemon=True)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 120)
        if thread.is_alive():
            raise RuntimeError("client thread did not finish")
    if errors:
        raise errors[0]
    out["warm"] = warm
    return out


WORKLOADS = {"service-cold": run_cold, "service-mixed": run_mixed}


def _hit_share(stats: dict) -> float:
    match = re.search(r"(\d+) hits / (\d+) misses",
                      str(stats.get("result_cache", "")))
    if not match:
        return 0.0
    hits, misses = int(match.group(1)), int(match.group(2))
    return hits / (hits + misses) if hits + misses else 0.0


def serve_once(root: Path, workdir: Path, name: str, seed: int,
               seconds: float, tally: Tally, calibration: speed.Calibration,
               spans_path: Path | None = None) -> dict:
    """Start a server, run workload ``name`` on it, collect its telemetry."""
    server = Server(root, workdir, f"{name}-traced" if spans_path else name,
                    calibration.cpu, spans_path)
    try:
        calibration.sample(3)
        out = WORKLOADS[name](server, seed, seconds, tally, calibration)
        repost(server, out["stream"][0], tally)  # the first request
        out["stats"] = server.stats()
        out["peak_rss_mb"] = server.peak_rss_mb()
        out["setup"] = (server.started, server.setup_s)
        out["post_seconds"] = server.post_seconds
    finally:
        server.stop()
    out["cache_bytes"] = server.cache_path.stat().st_size \
        if server.cache_path.exists() else 0
    return out


def end_to_end(out: dict, calibration: speed.Calibration
               ) -> dict[str, float]:
    """Throughputs are per second of the distinct-request client's busy
    time; cold quantiles cover the requests that simulate.  Every time is
    scaled to the reference host first."""
    stream = out["stream"]
    scaled = [calibration.scaled(r.started, r.seconds) for r in stream]
    cold = [t for t, r in zip(scaled, stream) if not r.variant]
    warm = [calibration.scaled(*sample) for sample in out["warm"]]
    return {
        "sim_runs_per_s": sum(r.sessions for r in stream) / sum(scaled),
        "cold_p50_ms": quantile_ms(cold, 0.50),
        "cold_p90_ms": quantile_ms(cold, 0.90),
        "cold_tags_per_s": sum(r.request["n_tags"] for r in stream)
        / sum(scaled),
        "warm_p50_ms": quantile_ms(warm, 0.50),
        "warm_p90_ms": quantile_ms(warm, 0.90),
        "peak_rss_mb": out["peak_rss_mb"],
    }


def run_workload(root: Path, workdir: Path, name: str, seed: int,
                 seconds: int, trace: bool, tally: Tally) -> dict:
    """Every server runs pinned to one CPU, where the calibration helper
    runs too; the client runs wherever the scheduler puts it."""
    calibration = speed.Calibration(max(os.sched_getaffinity(0)))
    try:
        if trace:
            return _traced(root, workdir, name, seed, seconds, tally,
                           calibration)
        out = serve_once(root, workdir, name, seed, seconds, tally,
                         calibration)
        setups = [out["setup"]]
        for probe in range(2):
            server = Server(root, workdir, f"setup-probe-{probe}",
                            calibration.cpu)
            server.stop()
            setups.append((server.started, server.setup_s))
            calibration.sample(3)
    finally:
        calibration.close()
    metrics = end_to_end(out, calibration)
    metrics["setup_s"] = statistics.median(
        calibration.scaled(*setup) for setup in setups)
    events = sum(out["stats"].get("events", {}).values())
    stream = out["stream"]
    print(f"  distinct requests: {len(stream)} in "
          f"{sum(r.seconds for r in stream):.2f} s, "
          f"{sum(not r.variant for r in stream)} of them cold; "
          f"warm samples: {len(out['warm'])}")
    print(f"  result-cache hit share: {_hit_share(out['stats']):.1%}; "
          f"server events kept: {events} -- peak_rss_mb grows with "
          "requests served; --seconds fixes how many")
    print(f"  set-up samples (s, as measured): "
          + ", ".join(f"{value:.4f}" for _, value in setups))
    print(calibration.summary())
    return metrics


def _traced(root: Path, workdir: Path, name: str, seed: int, seconds: int,
            tally: Tally, calibration: speed.Calibration) -> dict:
    """An untraced server, then a traced one, on the same requests."""
    plain = serve_once(root, workdir, name, seed, seconds / 2, tally,
                       calibration)
    spans_path = workdir / f"{name}-spans.json"
    traced = serve_once(root, workdir, name, seed, seconds / 2, tally,
                        calibration, spans_path)
    spans = tracing.SpanSet(json.loads(spans_path.read_text()))
    # The same requests in the same order: median paired ratio, each time
    # scaled for the host's speed when it ran.
    overhead = statistics.median(
        calibration.scaled(mine.started, mine.seconds)
        / calibration.scaled(theirs.started, theirs.seconds)
        for mine, theirs in zip(traced["stream"], plain["stream"])) - 1.0
    roots = [span for span in spans.named("frontend.serve_connection")
             if spans.has_child(span, "requests.request_from_dict")]
    posts = traced["post_seconds"]
    total = sum(posts)
    unattributed = tracing.print_ledger(
        f"{name} (all POSTs to the traced server)", total,
        spans.layer_self(roots), len(posts), overhead)
    metrics = tracing.span_metrics(spans)
    handles = spans.named("core.handle")
    stream = traced["stream"]
    stats = traced["stats"]
    metrics.update({
        "frontend.overhead_ms": 1000.0 * total / len(posts)
        - spans.mean_ms(handles),
        "requests.response_bytes": statistics.fmean(
            len(r.payload) for r in stream if not r.variant),
        "core.dedup_ratio": sum(r.zones for r in stream)
        / max(sum(r.cells for r in stream), 1),
        "result_cache.file_bytes": traced["cache_bytes"],
        "obs.events_per_request": sum(stats.get("events", {}).values())
        / max(stats.get("requests_served", 0), 1),
        "trace.overhead_ratio": overhead,
        "trace.unattributed_ms": 1000.0 * unattributed / len(posts),
    })
    return metrics
