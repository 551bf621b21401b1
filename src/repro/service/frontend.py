"""The asyncio front end: HTTP/1.1 over ``asyncio.start_server``.

The event loop owns accept/parse/respond; simulation never runs on it.
``POST /inventory`` bodies parse into :class:`~repro.service.requests.
InventoryRequest` and dispatch to :meth:`InventoryService.handle` on a
thread pool.  The service's compute lane serializes cold simulations only:
a pool thread serving a stored response never waits behind one, so the
pool's width bounds queued cold requests plus warm ones in progress, not
concurrent compute.  The canonical response bytes stream back verbatim --
the front end never re-encodes a payload, which is how the byte-identity
contract crosses the wire intact.  The ``GET`` endpoints take only the
service's short telemetry lock; ``/metrics.jsonl`` renders its lines on the
loop's default executor, so a large dump never stalls the loop.

Endpoints:

``POST /inventory``
    Body: a JSON request object.  200 with the canonical response bytes;
    400 with an ``{"error": ...}`` body on a malformed request (JSON
    nested past Python's recursion limit included); 500 with
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

An unknown path gets a 404 whatever the method; a known path asked with
the wrong method gets a 405 whose ``Allow`` header names its one method.
A request line or header line longer than the stream reader's 64 KiB
limit gets a 400 on any route, and so does a request carrying more than
one ``Content-Length`` header (RFC 9112 section 6.3).  The request line,
headers and body must all arrive within :data:`READ_TIMEOUT_S` of the
connection opening; a client that stalls past it gets a 408 and the
connection is closed.

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
    "READ_TIMEOUT_S",
    "ServiceFrontend",
]

#: Request bodies larger than this are rejected outright (a request is a
#: dozen scalar fields; anything bigger is not one of ours).
MAX_BODY_BYTES = 64 * 1024

#: Seconds a client has to send its whole request (line, headers, body).
READ_TIMEOUT_S = 10.0

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 408: "Request Timeout",
            413: "Payload Too Large", 500: "Internal Server Error"}


#: path -> the one method it answers.
_ROUTES = {"/inventory": "POST", "/healthz": "GET", "/stats": "GET",
           "/metrics.jsonl": "GET"}


def _http_response(status: int, body: bytes,
                   content_type: str = "application/json",
                   allow: str | None = None) -> bytes:
    allow_line = "" if allow is None else f"Allow: {allow}\r\n"
    head = (f"HTTP/1.1 {status} {_REASONS[status]}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{allow_line}"
            f"Connection: close\r\n\r\n")
    return head.encode("ascii") + body


def _error_body(message: str) -> bytes:
    return (json.dumps({"error": message}) + "\n").encode("utf-8")


_LINE_TOO_LONG = _http_response(
    400, _error_body("request line or header too long"))
_TIMED_OUT = _http_response(408, _error_body("request not received in time"))


async def _read_line(reader: asyncio.StreamReader) -> str | None:
    """One request or header line, or ``None`` past the reader's limit.

    ``StreamReader.readline`` raises ``ValueError`` for a line longer than
    its buffer limit (64 KiB by default); that is the client's fault.
    """
    try:
        return (await reader.readline()).decode("latin-1")
    except ValueError:
        return None


async def _read_request(reader: asyncio.StreamReader
                        ) -> tuple[str, str, bytes] | bytes:
    """``(method, path, body)``, or the error response to send instead."""
    request_line = await _read_line(reader)
    if request_line is None:
        return _LINE_TOO_LONG
    parts = request_line.split()
    if len(parts) != 3:
        return _http_response(400, _error_body("malformed request line"))
    method, path, _version = parts
    content_length: int | None = None
    while True:
        line = await _read_line(reader)
        if line is None:
            return _LINE_TOO_LONG
        if line in ("\r\n", "\n", ""):
            break
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            if content_length is not None:
                # RFC 9112 section 6.3: repeated lengths are unreliable
                # framing, not something to pick a winner from.
                return _http_response(
                    400, _error_body("repeated Content-Length"))
            try:
                content_length = int(value.strip())
            except ValueError:
                content_length = -1
            if content_length < 0:
                return _http_response(
                    400, _error_body("bad Content-Length"))
    if content_length is None:
        content_length = 0
    if content_length > MAX_BODY_BYTES:
        return _http_response(413, _error_body("request body too large"))
    try:
        body = await reader.readexactly(content_length)
    except asyncio.IncompleteReadError:
        return _http_response(
            400, _error_body("body shorter than Content-Length"))
    return method, path, body


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
        # ``wait_for`` rather than ``asyncio.timeout``: the latter needs
        # Python 3.11 and the package supports 3.10.
        try:
            request = await asyncio.wait_for(_read_request(reader),
                                             READ_TIMEOUT_S)
        except asyncio.TimeoutError:
            return _TIMED_OUT
        if isinstance(request, bytes):
            return request
        return await self._route(*request)


    async def _route(self, method: str, path: str, body: bytes) -> bytes:
        allowed = _ROUTES.get(path)
        if allowed is None:
            return _http_response(404, _error_body(f"no route {path}"))
        if method != allowed:
            return _http_response(405, _error_body(f"{allowed} {path}"),
                                  allow=allowed)
        if path == "/inventory":
            return await self._post_inventory(body)
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
        # A full retention window renders tens of thousands of lines:
        # build them on the loop's default executor, so the loop keeps
        # accepting and warm POSTs keep being answered meanwhile.
        loop = asyncio.get_running_loop()
        lines = await loop.run_in_executor(None, self._render_events)
        return _http_response(200, lines, content_type="application/jsonl")

    def _render_events(self) -> bytes:
        """The ``/metrics.jsonl`` body; runs off the event loop."""
        return "".join(json.dumps(event.to_json()) + "\n"
                       for event in self.service.metrics_events()
                       ).encode("utf-8")

    async def _post_inventory(self, body: bytes) -> bytes:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError,
                RecursionError) as error:
            return _http_response(400, _error_body(f"bad JSON body: {error}"))
        try:
            request = request_from_dict(payload)
        except ValueError as error:
            return _http_response(400, _error_body(str(error)))
        loop = asyncio.get_running_loop()
        response = await loop.run_in_executor(self._pool,
                                              self.service.handle, request)
        return _http_response(200, response)
