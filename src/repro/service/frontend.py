"""The asyncio front end: HTTP/1.1, one ``asyncio.Protocol`` per connection.

The event loop owns accept/parse/respond; simulation never runs on it.
``loop.create_server`` gives each connection a protocol that buffers
its bytes, parses each head line once as it completes, and keeps the
body up to its ``Content-Length``.  The read deadline is one
``loop.call_later`` handle.  Once the request is complete, reading
pauses and :meth:`ServiceFrontend._serve_connection` answers it, driven
without a Task: the protocol advances its coroutine in the coroutine's
own :class:`contextvars.Context`, so a stored response or an error is
written, and the connection closed, inside the very callback that
completed the request's bytes.  ``POST /inventory`` bodies parse into
:class:`~repro.service.requests.InventoryRequest`, and the loop answers
a stored response itself (:meth:`InventoryService.serve_stored`, under
the service's short telemetry lock).  Only a miss dispatches to
:meth:`InventoryService.handle` on a thread pool, and its coroutine
resumes from the pool future's done callback, so a warm hit never
queues for a pool thread that is waiting on the compute lane.  The lane
serializes cold simulations only, and the pool's width bounds the cold
requests queued for it.  The canonical response bytes go back verbatim
-- the front end never re-encodes a payload, which is how the
byte-identity contract crosses the wire intact.  The ``GET`` endpoints
take only the service's short telemetry lock; ``/metrics.jsonl`` renders
its lines on the loop's default executor, so a large dump never stalls
the loop.

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
A head -- request line and headers, lines ending in CRLF or a bare LF --
that runs past 64 KiB before its closing blank line gets a 400 on any
route, whether one line or many make it that long; so does a request
carrying more than one ``Content-Length`` header (RFC 9112 section 6.3),
and a body shorter than its ``Content-Length``.  Bytes after the body
are ignored: one request per connection, answered with ``Connection:
close``.  The request line, headers and body must all arrive within
:data:`READ_TIMEOUT_S` of the connection opening; a client that stalls
past it gets a 408 and the connection is closed.

Everything is stdlib: the environment bakes no HTTP framework in, and a
reading-protocol testbed has no business pulling one for four routes.
"""

from __future__ import annotations

import asyncio
import contextvars
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

#: Bytes the head (request line and headers) may span before its closing
#: blank line; the limit ``asyncio.StreamReader`` puts on one line.
_HEAD_LIMIT = 64 * 1024

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
_BODY_SHORT = _http_response(
    400, _error_body("body shorter than Content-Length"))


class _Connection(asyncio.Protocol):
    """One connection: frame one request, answer it, close.

    The body is kept only up to its ``Content-Length``, so between
    callbacks a connection holds at most one head plus
    :data:`MAX_BODY_BYTES`.  Once the request (or the error that ends it)
    is known, reading pauses and :meth:`ServiceFrontend._serve_connection`
    runs from that same callback, without a Task.
    """

    def __init__(self, frontend: ServiceFrontend) -> None:
        self._frontend = frontend
        self._transport: asyncio.Transport | None = None
        self._timer: asyncio.TimerHandle | None = None
        self._buffer = bytearray()
        #: Offset of the first head line not yet parsed.
        self._line_start = 0
        self._method: str | None = None
        self._path = ""
        self._length: int | None = None
        #: The body's length once the head is complete, else ``None``.
        self._body_length: int | None = None
        self._answered = False
        self._coroutine = None
        self._context: contextvars.Context | None = None

    # -- asyncio.Protocol --------------------------------------------------

    def connection_made(self, transport) -> None:
        self._transport = transport
        self._frontend._connections.add(self)
        self._timer = asyncio.get_running_loop().call_later(
            READ_TIMEOUT_S, self._answer, _TIMED_OUT)

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        outcome = self._frame() if self._body_length is None \
            else self._body()
        if outcome is not None:
            self._answer(outcome)

    def eof_received(self) -> bool:
        # Reading pauses once the request is complete, so the request is
        # still open here: the peer will send no more of it.
        outcome = None
        if self._body_length is None:
            # An unfinished last line is a whole line, and the head ends
            # where the bytes do.
            if len(self._buffer) > self._line_start:
                self._buffer += b"\n"
            outcome = self._frame()
            if outcome is None and self._body_length is None:
                outcome = self._end_head()
        self._answer(outcome or _BODY_SHORT)
        return True  # keep the transport open for the response

    def connection_lost(self, exc: Exception | None) -> None:
        self._timer.cancel()
        self._frontend._connections.discard(self)

    # -- framing -----------------------------------------------------------

    def _frame(self) -> tuple[str, str, bytes] | bytes | None:
        """Parse the head lines completed so far.

        Returns the request or an error response once either is known,
        ``None`` while more bytes are needed.
        """
        buffer = self._buffer
        start = self._line_start
        while (end := buffer.find(b"\n", start)) >= 0:
            line = buffer[start:end + 1].decode("latin-1")
            start = end + 1
            if self._method is not None and line in ("\r\n", "\n"):
                self._line_start = start
                return self._end_head()
            if end > _HEAD_LIMIT:
                return _LINE_TOO_LONG
            if self._method is None:
                parts = line.split()
                if len(parts) != 3:
                    return _http_response(
                        400, _error_body("malformed request line"))
                self._method, self._path, _version = parts
            else:
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    if self._length is not None:
                        # RFC 9112 section 6.3: repeated lengths are
                        # unreliable framing, not something to pick a
                        # winner from.
                        return _http_response(
                            400, _error_body("repeated Content-Length"))
                    try:
                        self._length = int(value.strip())
                    except ValueError:
                        self._length = -1
                    if self._length < 0:
                        return _http_response(
                            400, _error_body("bad Content-Length"))
        self._line_start = start
        # An unfinished line that already ends past the limit can only be
        # too long, unless it is the head's closing blank line.
        if len(buffer) > _HEAD_LIMIT and buffer[start:] not in (b"", b"\r"):
            return _LINE_TOO_LONG
        return None

    def _end_head(self) -> tuple[str, str, bytes] | bytes | None:
        if self._method is None:
            return _http_response(400, _error_body("malformed request line"))
        length = 0 if self._length is None else self._length
        if length > MAX_BODY_BYTES:
            return _http_response(413, _error_body("request body too large"))
        self._body_length = length
        del self._buffer[:self._line_start]
        return self._body()

    def _body(self) -> tuple[str, str, bytes] | None:
        if len(self._buffer) < self._body_length:
            return None
        return self._method, self._path, bytes(
            self._buffer[:self._body_length])

    # -- answering ---------------------------------------------------------

    def _answer(self, request: tuple[str, str, bytes] | bytes) -> None:
        """Stop reading and run the one request's coroutine."""
        self._answered = True
        self._buffer = bytearray()
        self._timer.cancel()
        self._transport.pause_reading()
        self._coroutine = self._frontend._serve_connection(self._transport,
                                                           request)
        self._context = contextvars.copy_context()
        self._context.run(self._resume)

    def _resume(self, _future: asyncio.Future | None = None) -> None:
        """Advance the coroutine to its next await; runs in its context.

        The coroutine awaits only futures (the executors'); each one
        resumes it from its done callback.
        """
        try:
            future = self._coroutine.send(None)
        except StopIteration:
            return
        future._asyncio_future_blocking = False
        future.add_done_callback(self._resume, context=self._context)


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
        #: Connections not yet lost, so :meth:`close` can end idle ones.
        self._connections: set[_Connection] = set()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind and listen; ``port=0`` picks a free port (see ``self.port``)."""
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _Connection(self), self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        """Stop listening, drop unfinished requests, answer misses in flight."""
        if self._server is not None:
            self._server.close()
            for connection in list(self._connections):
                if not connection._answered:
                    connection._transport.close()
            await self._server.wait_closed()
            self._server = None
        # Off the loop, so the misses still computing are answered from
        # their done callbacks before this returns.
        await asyncio.to_thread(self._pool.shutdown)

    # -- the one request ---------------------------------------------------

    async def _serve_connection(self, transport: asyncio.Transport,
                                request: tuple[str, str, bytes] | bytes
                                ) -> None:
        """Answer one framed ``(method, path, body)`` request, or send the
        error response framing ended with; then end and close the
        connection."""
        try:
            response = request if isinstance(request, bytes) \
                else await self._route(*request)
        except Exception:  # never kill the loop's callback
            # The exception text may name files or internals; the client
            # gets a fixed body.
            response = _http_response(500, _error_body("internal error"))
        try:
            transport.write(response)
            # End the stream now: the client sees the response complete
            # without waiting a loop iteration for the close.
            transport.write_eof()
        except OSError:  # the client reset the connection already
            pass
        finally:
            transport.close()

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
        response = self.service.serve_stored(request)
        if response is None:
            loop = asyncio.get_running_loop()
            response = await loop.run_in_executor(self._pool,
                                                  self.service.handle,
                                                  request)
        return _http_response(200, response)
