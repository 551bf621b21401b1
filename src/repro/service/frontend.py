"""The asyncio front end: HTTP/1.1 over ``asyncio.start_server``.

The event loop owns accept/parse/respond; simulation never runs on it.
``POST /inventory`` bodies parse into :class:`~repro.service.requests.
InventoryRequest` and dispatch to :meth:`InventoryService.handle` on a
thread pool (the service's compute lane serializes the actual simulation,
so the pool's width bounds *queued* requests, not concurrent compute), and
the canonical response bytes stream back verbatim -- the front end never
re-encodes a payload, which is how the byte-identity contract crosses the
wire intact.

Endpoints:

``POST /inventory``
    Body: a JSON request object.  200 with the canonical response bytes;
    400 with an ``{"error": ...}`` body on a malformed request; 500 with
    ``{"error": "internal error"}`` if serving fails unexpectedly.
``GET /healthz``
    The run manifest of everything served so far (the same document batch
    CLIs write via ``--manifest-out``), wrapped with a ``status`` field.
``GET /stats``
    Counters, histograms, event counts and result-cache accounting.
``GET /metrics.jsonl``
    The service's event stream as JSON Lines with a trailing
    ``metrics_snapshot`` -- pipe to a file and it validates under
    ``python -m repro.obs.report`` against the ``/healthz`` manifest.

Everything is stdlib: the environment bakes no HTTP framework in, and a
reading-protocol testbed has no business pulling one for four routes.
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor

from repro.service.core import InventoryService
from repro.service.requests import request_from_dict

__all__ = [
    "MAX_BODY_BYTES",
    "ServiceFrontend",
]

#: Request bodies larger than this are rejected outright (a request is a
#: dozen scalar fields; anything bigger is not one of ours).
MAX_BODY_BYTES = 64 * 1024

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            500: "Internal Server Error"}


def _http_response(status: int, body: bytes,
                   content_type: str = "application/json") -> bytes:
    head = (f"HTTP/1.1 {status} {_REASONS[status]}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n")
    return head.encode("ascii") + body


def _error_body(message: str) -> bytes:
    return (json.dumps({"error": message}) + "\n").encode("utf-8")


class ServiceFrontend:
    """One listening socket in front of one :class:`InventoryService`."""

    def __init__(self, service: InventoryService, host: str = "127.0.0.1",
                 port: int = 8423, workers: int = 4) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.service = service
        self.host = host
        self.port = port
        self._pool = ThreadPoolExecutor(max_workers=workers,
                                        thread_name_prefix="inventory")
        self._server: asyncio.AbstractServer | None = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind and listen; ``port=0`` picks a free port (see ``self.port``)."""
        self._server = await asyncio.start_server(self._serve_connection,
                                                  self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._pool.shutdown(wait=True)

    # -- the one connection handler ----------------------------------------

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        try:
            response = await self._respond(reader)
        except Exception:  # never kill the accept loop
            # The exception text may name files or internals; the client
            # gets a fixed body.
            response = _http_response(500, _error_body("internal error"))
        try:
            writer.write(response)
            await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(self, reader: asyncio.StreamReader) -> bytes:
        request_line = (await reader.readline()).decode("latin-1").strip()
        parts = request_line.split()
        if len(parts) != 3:
            return _http_response(400, _error_body("malformed request line"))
        method, path, _version = parts
        content_length = 0
        while True:
            line = (await reader.readline()).decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    return _http_response(
                        400, _error_body("bad Content-Length"))
        if content_length > MAX_BODY_BYTES:
            return _http_response(413, _error_body("request body too large"))
        body = await reader.readexactly(content_length) if content_length \
            else b""
        return await self._route(method, path, body)

    async def _route(self, method: str, path: str, body: bytes) -> bytes:
        if path == "/inventory":
            if method != "POST":
                return _http_response(405, _error_body("POST /inventory"))
            return await self._post_inventory(body)
        if method != "GET":
            return _http_response(405, _error_body(f"GET {path}"))
        if path == "/healthz":
            manifest = self.service.manifest().to_dict()
            payload = {"status": "ok", "manifest": manifest}
            return _http_response(
                200, (json.dumps(payload, sort_keys=True) + "\n")
                .encode("utf-8"))
        if path == "/stats":
            return _http_response(
                200, (json.dumps(self.service.stats(), sort_keys=True)
                      + "\n").encode("utf-8"))
        if path == "/metrics.jsonl":
            lines = "".join(json.dumps(event.to_json()) + "\n"
                            for event in self.service.metrics_events())
            return _http_response(200, lines.encode("utf-8"),
                                  content_type="application/jsonl")
        return _http_response(404, _error_body(f"no route {path}"))

    async def _post_inventory(self, body: bytes) -> bytes:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return _http_response(400, _error_body(f"bad JSON body: {error}"))
        try:
            request = request_from_dict(payload)
        except ValueError as error:
            return _http_response(400, _error_body(str(error)))
        loop = asyncio.get_running_loop()
        response = await loop.run_in_executor(self._pool,
                                              self.service.handle, request)
        return _http_response(200, response)
