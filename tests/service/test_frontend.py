"""The asyncio HTTP front end, exercised through the real socket layer."""

from __future__ import annotations

import asyncio
import gc
import json
import os
import threading
import time
import warnings

import pytest

from repro.obs.events import Event, read_jsonl
from repro.obs.manifest import RunManifest
from repro.obs.report import cross_check_manifest
from repro.service.client import http_get, post_inventory
from repro.service import frontend as frontend_module
from repro.service.core import (
    RETAINED_REQUESTS,
    InventoryService,
    ServiceConfig,
)
from repro.service.frontend import (
    MAX_BODY_BYTES,
    ServiceFrontend,
    _HEAD_LIMIT,
)
from repro.service.requests import request_from_dict

REQUEST = {"n_tags": 400, "zones": 4, "seed": 13}


def run(coroutine):
    return asyncio.run(coroutine)


async def _with_frontend(test):
    frontend = ServiceFrontend(InventoryService(ServiceConfig(jobs=1)),
                               port=0, workers=2)
    await frontend.start()
    try:
        return await test(frontend)
    finally:
        await frontend.close()


def test_post_inventory_round_trip():
    async def scenario(frontend):
        status, body = await post_inventory(frontend.host, frontend.port,
                                            REQUEST)
        assert status == 200
        payload = json.loads(body)
        assert payload["facility"]["unique_tags"] == 400
        # The wire bytes are exactly the service's canonical encoding.
        assert body == frontend.service.handle(request_from_dict(REQUEST))
    run(_with_frontend(scenario))


def test_concurrent_identical_requests_get_identical_bytes():
    async def scenario(frontend):
        responses = await asyncio.gather(*[
            post_inventory(frontend.host, frontend.port, REQUEST)
            for _ in range(5)])
        assert all(status == 200 for status, _ in responses)
        assert len({body for _, body in responses}) == 1
    run(_with_frontend(scenario))


def test_malformed_requests_get_400():
    async def scenario(frontend):
        host, port = frontend.host, frontend.port
        status, body = await post_inventory(host, port,
                                            {**REQUEST, "bogus": 1})
        assert status == 400
        assert "unknown" in json.loads(body)["error"]
        status, body = await post_inventory(host, port,
                                            {"n_tags": 10, "zones": 1})
        assert status == 400
        assert "seed" in json.loads(body)["error"]
    run(_with_frontend(scenario))


def test_routing_errors():
    async def scenario(frontend):
        host, port = frontend.host, frontend.port
        status, _ = await http_get(host, port, "/nowhere")
        assert status == 404
        status, _ = await http_get(host, port, "/inventory")
        assert status == 405
        # Oversized bodies are rejected before parsing.
        reader, writer = await asyncio.open_connection(host, port)
        head = (f"POST /inventory HTTP/1.1\r\nHost: {host}\r\n"
                f"Content-Length: {MAX_BODY_BYTES + 1}\r\n"
                f"Connection: close\r\n\r\n")
        writer.write(head.encode("ascii"))
        await writer.drain()
        status_line = (await reader.readline()).decode("latin-1")
        assert " 413 " in status_line
        writer.close()
    run(_with_frontend(scenario))


async def _exchange(frontend, data: bytes) -> tuple[int, bytes, bytes]:
    """Write ``data`` as one whole request; return (status, head, body)."""
    reader, writer = await asyncio.open_connection(frontend.host,
                                                   frontend.port)
    writer.write(data)
    writer.write_eof()
    await writer.drain()
    response = await reader.read()
    writer.close()
    head, _, body = response.partition(b"\r\n\r\n")
    return int(head.split()[1]), head, body


async def _send_raw(frontend, data: bytes) -> tuple[int, bytes]:
    """Write ``data`` as one whole request; return (status, body)."""
    status, _, body = await _exchange(frontend, data)
    return status, body


@pytest.mark.parametrize("method, path, status, allow", [
    ("GET", "/nope", 404, None),
    ("POST", "/nope", 404, None),
    ("DELETE", "/nope", 404, None),
    ("GET", "/inventory", 405, "POST"),
    ("DELETE", "/inventory", 405, "POST"),
    ("POST", "/stats", 405, "GET"),
    ("PUT", "/healthz", 405, "GET"),
])
def test_unknown_paths_404_and_wrong_methods_405_with_allow(
        method, path, status, allow):
    """Unknown routes are 404 whatever the method; a 405 names the route's
    one method in ``Allow`` (RFC 9110 section 15.5.6)."""
    async def scenario(frontend):
        got, head, body = await _exchange(
            frontend,
            f"{method} {path} HTTP/1.1\r\nContent-Length: 0\r\n\r\n"
            .encode("ascii"))
        assert got == status
        headers = dict(line.split(": ", 1) for line in
                       head.decode("latin-1").split("\r\n")[1:])
        assert headers.get("Allow") == allow
        assert "error" in json.loads(body)
    run(_with_frontend(scenario))


def _post_head(content_length: str) -> bytes:
    return (f"POST /inventory HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Length: {content_length}\r\n"
            f"Connection: close\r\n\r\n").encode("ascii")


@pytest.mark.parametrize("content_length, body", [
    ("-5", b""),
    ("five", b""),
    ("10", b'{"n_tags"'),  # the client stops sending early
])
def test_bad_content_length_gets_400(content_length, body):
    async def scenario(frontend):
        status, _ = await _send_raw(frontend,
                                    _post_head(content_length) + body)
        assert status == 400
    run(_with_frontend(scenario))


def test_repeated_content_length_gets_400_and_the_service_stays_up():
    """RFC 9112 section 6.3: two lengths are unreliable framing; the
    last one must not silently win."""
    body = json.dumps(REQUEST).encode("ascii")
    head = (f"POST /inventory HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Content-Length: {len(body) - 1}\r\n"
            f"Connection: close\r\n\r\n").encode("ascii")

    async def scenario(frontend):
        status, error = await _send_raw(frontend, head + body)
        assert status == 400
        assert "Content-Length" in json.loads(error)["error"]
        status, response = await post_inventory(frontend.host,
                                                frontend.port, REQUEST)
        assert status == 200
        assert json.loads(response)["facility"]["unique_tags"] == 400
    run(_with_frontend(scenario))


@pytest.mark.parametrize("request_bytes", [
    b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
    b"GET /healthz HTTP/1.1\r\nX: " + b"a" * 70_000 + b"\r\n\r\n",
], ids=["request-line", "header"])
def test_line_over_the_reader_limit_gets_400(request_bytes):
    async def scenario(frontend):
        status, body = await _send_raw(frontend, request_bytes)
        assert status == 400
        assert "too long" in json.loads(body)["error"]
    run(_with_frontend(scenario))


def _post_bytes(request: dict) -> bytes:
    body = json.dumps(request).encode("ascii")
    return _post_head(str(len(body))) + body


async def _pieces_exchange(frontend, pieces) -> bytes:
    """Send ``pieces`` one write (and one loop turn) apart, without a
    half-close: the server must frame the request from its bytes alone.
    Returns every response byte up to the server's close."""
    reader, writer = await asyncio.open_connection(frontend.host,
                                                   frontend.port)
    try:
        for piece in pieces:
            writer.write(piece)
            await writer.drain()
            await asyncio.sleep(0)
        return await asyncio.wait_for(reader.read(), 10)
    finally:
        writer.close()
        await writer.wait_closed()


def _byte_by_byte(data: bytes) -> list[bytes]:
    return [data[i:i + 1] for i in range(len(data))]


def _head_then_body(data: bytes) -> list[bytes]:
    split = data.index(b"\r\n\r\n") + 3  # between the blank line's CR, LF
    return [data[:split], data[split:-7], data[-7:]]


@pytest.mark.parametrize("pieces", [
    _byte_by_byte,
    _head_then_body,
    lambda data: [data.replace(b"\r\n", b"\n")],
    lambda data: [data + b"GET /stats HTTP/1.1\r\n\r\ntrailing bytes"],
], ids=["one-byte-at-a-time", "head-and-body-split", "bare-lf",
        "trailing-bytes"])
def test_request_framing_does_not_change_the_response(pieces):
    """However the request's bytes arrive, the response bytes are the ones
    a one-shot write gets."""
    data = _post_bytes(REQUEST)

    async def scenario(frontend):
        one_shot = await _pieces_exchange(frontend, [data])
        assert one_shot.startswith(b"HTTP/1.1 200 OK\r\n")
        assert await _pieces_exchange(frontend, pieces(data)) == one_shot
    run(_with_frontend(scenario))


def test_a_head_of_many_short_lines_past_the_limit_gets_400():
    """The 64 KiB limit bounds the whole head, not just each line; a head
    just inside it is served."""
    def head(size: int) -> bytes:
        lines = "".join(f"X-Pad-{i:05d}: {'a' * 50}\r\n"
                        for i in range(size // 64))
        return f"GET /healthz HTTP/1.1\r\n{lines}\r\n".encode("ascii")

    assert len(head(60_000)) < _HEAD_LIMIT < len(head(70_000))

    async def scenario(frontend):
        status, body = await _send_raw(frontend, head(70_000))
        assert status == 400
        assert "too long" in json.loads(body)["error"]
        status, _ = await _send_raw(frontend, head(60_000))
        assert status == 200
    run(_with_frontend(scenario))


class _FakeTransport(asyncio.Transport):
    """Records what a connection does to its transport."""

    def __init__(self) -> None:
        super().__init__()
        self.paused = False
        self.closed = False
        self.written = bytearray()

    def pause_reading(self) -> None:
        self.paused = True

    def write(self, data) -> None:
        self.written += data

    def write_eof(self) -> None:
        pass

    def close(self) -> None:
        self.closed = True


@pytest.mark.parametrize("chunk", [7, 4096, 1 << 18])
@pytest.mark.parametrize("kind", ["body", "head"])
def test_buffered_bytes_stay_bounded_and_reading_pauses(kind, chunk):
    """A connection never holds more than one head plus the largest body,
    however the bytes are cut, and stops reading once the request is
    complete -- the bytes after it are never asked for."""
    if kind == "body":
        request = (f"POST /nowhere HTTP/1.1\r\nContent-Length: "
                   f"{MAX_BODY_BYTES}\r\n\r\n").encode("ascii") \
            + b"b" * MAX_BODY_BYTES
        expected = b"HTTP/1.1 404 "
    else:  # short header lines running past the head limit
        request = b"GET /healthz HTTP/1.1\r\n" \
            + b"X-Pad: 0123456789abcdef\r\n" * 4000
        expected = b"HTTP/1.1 400 "
    data = request + b"t" * (1 << 18)

    async def scenario(frontend):
        connection = frontend_module._Connection(frontend)
        transport = _FakeTransport()
        connection.connection_made(transport)
        fed = 0
        while not transport.paused:
            assert fed < len(data)
            connection.data_received(data[fed:fed + chunk])
            fed += chunk
            assert len(connection._buffer) <= _HEAD_LIMIT + MAX_BODY_BYTES
        if kind == "body":
            assert fed - chunk < len(request) <= fed
        assert transport.written.startswith(expected)
        assert transport.closed
        connection.connection_lost(None)
    run(_with_frontend(scenario))


def test_deeply_nested_json_gets_400_and_the_lane_still_serves():
    nested = b"[" * 30_000 + b"]" * 30_000
    assert len(nested) <= MAX_BODY_BYTES

    async def scenario(frontend):
        status, body = await _send_raw(
            frontend, _post_head(str(len(nested))) + nested)
        assert status == 400
        assert "bad JSON body" in json.loads(body)["error"]
        status, body = await post_inventory(frontend.host, frontend.port,
                                            REQUEST)
        assert status == 200
        assert json.loads(body)["facility"]["unique_tags"] == 400
    run(_with_frontend(scenario))


def test_health_stats_and_metrics_endpoints_cohere(tmp_path):
    async def scenario(frontend):
        host, port = frontend.host, frontend.port
        for seed in (1, 2, 1):
            status, _ = await post_inventory(host, port,
                                             {**REQUEST, "seed": seed})
            assert status == 200

        status, stats_body = await http_get(host, port, "/stats")
        assert status == 200
        stats = json.loads(stats_body)
        assert stats["requests_served"] == 3
        assert stats["responses_cached"] == 1
        assert stats["events"]["request_done"] == 3

        # metrics first, then health: the dump's terminal snapshot must be
        # counted by the manifest for the cross-check to balance.
        status, metrics_body = await http_get(host, port, "/metrics.jsonl")
        assert status == 200
        sink = tmp_path / "metrics.jsonl"
        sink.write_bytes(metrics_body)
        events = read_jsonl(sink)  # re-validates every line's schema
        assert events[-1].name == "metrics_snapshot"

        status, health_body = await http_get(host, port, "/healthz")
        assert status == 200
        health = json.loads(health_body)
        assert health["status"] == "ok"
        manifest = RunManifest.from_dict(health["manifest"])
        assert cross_check_manifest(events, manifest) == []
    run(_with_frontend(scenario))


def test_warm_post_is_answered_while_a_metrics_dump_renders(monkeypatch):
    """A full-window ``/metrics.jsonl`` dump renders off the event loop
    and outside the telemetry lock: a warm ``POST`` sent while the dump's
    lines are being built comes back first, byte-identical, and the dump
    is the stream's events rendered line by line."""
    requests = [{"n_tags": 1, "zones": 1, "seed": seed}
                for seed in range(RETAINED_REQUESTS)]
    rendering = threading.Event()
    warm_answered = threading.Event()
    to_json = Event.to_json

    def gated(event):
        # The first line blocks until the warm reply is in (or 10 s).
        if not rendering.is_set():
            rendering.set()
            warm_answered.wait(timeout=10)
        return to_json(event)

    async def scenario(frontend):
        host, port = frontend.host, frontend.port
        cold = [await post_inventory(host, port, body) for body in requests]
        window = frontend.service.obs.events.events
        monkeypatch.setattr(Event, "to_json", gated)
        dump = asyncio.ensure_future(http_get(host, port, "/metrics.jsonl"))
        assert await asyncio.to_thread(rendering.wait, 10)
        warm = await post_inventory(host, port, requests[0])
        dump_done_first = dump.done()
        warm_answered.set()
        status, body = await dump
        assert not dump_done_first, "the warm POST waited for the dump"
        assert warm == cold[0]
        assert status == 200
        # The whole window, rendered line by line, then the snapshot.
        head = "".join(json.dumps(to_json(event)) + "\n"
                       for event in window).encode("utf-8")
        assert body.startswith(head)
        (snapshot,) = body[len(head):].decode("utf-8").splitlines()
        assert json.loads(snapshot)["event"] == "metrics_snapshot"
        assert json.loads(snapshot)["seq"] == window[-1].seq + 1
    run(_with_frontend(scenario))


def test_stalled_client_gets_408_while_others_are_served(monkeypatch):
    """Slow-loris: half a header and then silence.  The read deadline
    answers 408 and closes; a well-formed request sent meanwhile is
    served."""
    monkeypatch.setattr(frontend_module, "READ_TIMEOUT_S", 0.2)

    async def scenario(frontend):
        reader, writer = await asyncio.open_connection(frontend.host,
                                                       frontend.port)
        writer.write(b"POST /inventory HTTP/1.1\r\nHost: 127.0")
        await writer.drain()
        started = time.perf_counter()

        async def stalled() -> tuple[bytes, float]:
            response = await asyncio.wait_for(reader.read(), 2.0)
            return response, time.perf_counter() - started

        (status, body), (response, waited) = await asyncio.gather(
            post_inventory(frontend.host, frontend.port, REQUEST), stalled())
        writer.close()
        assert status == 200
        assert json.loads(body)["facility"]["unique_tags"] == 400
        assert response.startswith(b"HTTP/1.1 408 Request Timeout\r\n")
        assert waited < 1.0
    run(_with_frontend(scenario))


class _FailsOnceService(InventoryService):
    """Raises from inside the compute lane on its first cold request."""

    SECRET = "/srv/inventory/secret-state.db"

    def __init__(self) -> None:
        super().__init__(ServiceConfig(jobs=1))
        self.failed = False

    def _compute(self, request, key):
        if not self.failed:
            self.failed = True
            raise RuntimeError(self.SECRET)
        return super()._compute(request, key)


def test_internal_error_hides_its_text_and_keeps_the_lane_usable():
    async def scenario():
        service = _FailsOnceService()
        frontend = ServiceFrontend(service, port=0, workers=2)
        await frontend.start()
        try:
            host, port = frontend.host, frontend.port
            status, body = await post_inventory(host, port, REQUEST)
            assert status == 500
            assert service.SECRET.encode() not in body
            assert json.loads(body) == {"error": "internal error"}
            # The failure released the compute lane: the next request on
            # the same front end computes normally.
            status, body = await post_inventory(host, port, REQUEST)
            assert status == 200
            assert json.loads(body)["facility"]["unique_tags"] == 400
        finally:
            await frontend.close()
    run(scenario())


class _HeldService(InventoryService):
    """Once armed, every cold compute waits for ``release``."""

    def __init__(self) -> None:
        super().__init__(ServiceConfig(jobs=1))
        self.armed = False
        self.release = threading.Event()
        #: Requests that reached :meth:`handle`, i.e. took a pool thread.
        self.handled = 0

    def handle(self, request):
        self.handled += 1
        return super().handle(request)

    def _compute(self, request, key):
        if self.armed:
            self.release.wait(timeout=30)
        return super()._compute(request, key)


def test_warm_hits_are_answered_while_every_pool_thread_waits():
    """``workers`` cold requests fill the pool: one computes in the lane
    and the others wait for it.  Stored responses still come back, all
    50 byte-equal and every one while each cold task is held, and none
    of them takes a pool thread.  An ordering check: no wall-clock
    bound."""
    workers = 2

    async def scenario():
        service = _HeldService()
        frontend = ServiceFrontend(service, port=0, workers=workers)
        await frontend.start()
        host, port = frontend.host, frontend.port
        try:
            status, stored = await post_inventory(host, port, REQUEST)
            assert status == 200
            service.armed = True
            cold = [asyncio.ensure_future(post_inventory(
                host, port, {**REQUEST, "seed": seed}))
                for seed in range(100, 100 + workers)]
            while service.handled < 1 + workers:
                await asyncio.sleep(0.001)
            for _ in range(50):
                status, body = await post_inventory(host, port, REQUEST)
                assert (status, body) == (200, stored)
                # Answered while every cold task is still held.
                assert not any(task.done() for task in cold)
            assert service.handled == 1 + workers
            service.release.set()
            assert all(status == 200
                       for status, _ in await asyncio.gather(*cold))
        finally:
            service.release.set()
            await frontend.close()
    run(scenario())


def test_frontend_validates_workers():
    with pytest.raises(ValueError, match="workers"):
        ServiceFrontend(InventoryService(), workers=0)


def _fd_count() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd")
def test_no_kind_of_connection_leaks_a_descriptor(monkeypatch):
    """Every way a connection can end -- 200, 400, 404, 405, 408, 413,
    500, and a client gone mid-body, by FIN or by RST -- gives its
    descriptors back, and the lane still serves afterwards."""
    monkeypatch.setattr(frontend_module, "READ_TIMEOUT_S", 0.2)
    body = json.dumps(REQUEST).encode("ascii")

    async def gone_mid_body(frontend, abort: bool) -> None:
        _, writer = await asyncio.open_connection(frontend.host,
                                                  frontend.port)
        writer.write(_post_head(str(len(body))) + body[:5])
        await writer.drain()
        await asyncio.sleep(0.01)
        if abort:
            writer.transport.abort()
        else:
            writer.close()
            await writer.wait_closed()

    async def scenario():
        service = _FailsOnceService()
        frontend = ServiceFrontend(service, port=0, workers=2)
        await frontend.start()
        try:
            host, port = frontend.host, frontend.port
            baseline = _fd_count()
            # The first POST meets the failing compute, the others its
            # stored result.
            for post in (500, 200, 200):
                statuses = [
                    (await post_inventory(host, port, REQUEST))[0],
                    (await _send_raw(frontend, _post_head("2") + b"{]"))[0],
                    (await http_get(host, port, "/nope"))[0],
                    (await http_get(host, port, "/inventory"))[0],
                    (await _pieces_exchange(
                        frontend, [b"GET /stats HTTP/1.1\r\n"]))[9:12],
                    (await _send_raw(frontend, _post_head(
                        str(MAX_BODY_BYTES + 1))))[0],
                ]
                assert statuses == [post, 400, 404, 405, b"408", 413]
                await gone_mid_body(frontend, abort=False)
                await gone_mid_body(frontend, abort=True)
            for _ in range(200):
                if _fd_count() == baseline and not frontend._connections:
                    break
                await asyncio.sleep(0.01)
            assert _fd_count() == baseline
            assert not frontend._connections
            status, response = await post_inventory(host, port, REQUEST)
            assert status == 200
            assert json.loads(response)["facility"]["unique_tags"] == 400
        finally:
            await frontend.close()
    run(scenario())


def test_close_answers_a_miss_in_flight_without_warnings():
    """``close`` while a miss computes and another client is still
    sending: it returns once the miss has been answered, drops the
    unfinished request, and leaves nothing unclosed or unawaited."""
    async def scenario():
        service = _HeldService()
        service.armed = True
        frontend = ServiceFrontend(service, port=0, workers=2)
        await frontend.start()
        miss = asyncio.ensure_future(post_inventory(
            frontend.host, frontend.port, REQUEST))
        reader, writer = await asyncio.open_connection(frontend.host,
                                                       frontend.port)
        writer.write(b"GET /stats HTTP/1.1\r\n")
        await writer.drain()
        while service.handled < 1 or len(frontend._connections) < 2:
            await asyncio.sleep(0.001)
        releaser = threading.Timer(0.2, service.release.set)
        releaser.start()
        await asyncio.wait_for(frontend.close(), 20)
        status, body = await asyncio.wait_for(miss, 5)
        releaser.join()
        assert status == 200
        assert json.loads(body)["facility"]["unique_tags"] == 400
        assert await asyncio.wait_for(reader.read(), 5) == b""
        writer.close()
        await writer.wait_closed()

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run(scenario())
        gc.collect()
    assert [str(warning.message) for warning in caught] == []


def test_a_stored_hit_creates_no_task():
    """The hit path is driven from the protocol's callbacks: past the
    Task in which asyncio's selector loop sets up each accepted
    connection, answering stored responses creates no asyncio Task."""
    async def scenario(frontend):
        status, stored = await post_inventory(frontend.host, frontend.port,
                                              REQUEST)
        assert status == 200
        loop = asyncio.get_running_loop()
        created = []

        def counting(loop, coroutine, **kwargs):
            if coroutine.__name__ != "_accept_connection2":
                created.append(coroutine)
            return asyncio.Task(coroutine, loop=loop, **kwargs)

        loop.set_task_factory(counting)
        try:
            for _ in range(20):
                assert await post_inventory(frontend.host, frontend.port,
                                            REQUEST) == (200, stored)
        finally:
            loop.set_task_factory(None)
        assert created == []
    run(_with_frontend(scenario))
