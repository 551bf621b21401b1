"""The asyncio HTTP front end, exercised through the real socket layer."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.obs.events import read_jsonl
from repro.obs.manifest import RunManifest
from repro.obs.report import cross_check_manifest
from repro.service.client import http_get, post_inventory
from repro.service.core import InventoryService, ServiceConfig
from repro.service.frontend import MAX_BODY_BYTES, ServiceFrontend
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


def test_frontend_validates_workers():
    with pytest.raises(ValueError, match="workers"):
        ServiceFrontend(InventoryService(), workers=0)
