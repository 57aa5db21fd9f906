"""Asyncio HTTP front end over the micro-batching scheduler.

:class:`FitServer` is the network edge of the fit service: a dependency-free
``asyncio`` server speaking HTTP/1.1 (keep-alive), with the versioned JSON
frame protocol of :mod:`repro.service.net.protocol` in the bodies.

Routes (schema v1):

* ``POST /v1/fit`` — one fit frame in, one result (or typed error) frame
  out; the HTTP status mirrors the error taxonomy mapping.
* ``POST /v1/fit/batch`` — a batch_fit frame in, a batch_result frame out
  with one result-or-error item per request (a malformed entry gets its own
  400 item, and intake overflow splits the batch per the accepted/rejected
  contract instead of failing it).
* ``GET /healthz``, ``GET /metrics``, ``GET /pool`` — the ops surface
  (liveness, live ``Telemetry.snapshot()``, pool/session stats).

A malformed request head (request line, an over-long line, too many
headers, a ``Content-Length`` that is not a non-negative integer) is
answered 400, a body above ``max_message_bytes`` 413, and the connection
closed.

The thread bridge is load-bearing and regression-tested.  The scheduler's
futures are thread-backed.  A fit is submitted straight from the event loop
with ``timeout=0``, which never blocks: validation, the cache lookup and the
enqueue run inline, with no thread handoff.  Only when that raises
:class:`queue.Full` (intake full, or a bulk producer holding the accept
lock) does the submit move to a small executor and ride the backpressure
there for up to ``submit_timeout_s``, so the loop keeps serving other
connections.  Batch submits always take the executor.  Futures are awaited
via ``asyncio.wrap_future``; responses stay bit-identical to in-process
``scheduler.submit`` calls.
"""

from __future__ import annotations

import asyncio
import json
import queue
import threading
from concurrent.futures import ThreadPoolExecutor

from repro import config
from repro.service.net.protocol import (
    SUPPORTED_VERSIONS,
    Frame,
    ProtocolError,
    WireFit,
    WireResult,
    decode_frame,
    error_to_frame,
)
from repro.service.scheduler import MicroBatchScheduler

__all__ = ["FitServer", "ServerHandle", "serve_in_thread"]

#: Reason strings for the handful of HTTP statuses the edge answers with.
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class _RefusedHead(ProtocolError):
    """A request head the edge will not serve; answered, then closed."""

    def __init__(self, message: str, http_status: int) -> None:
        super().__init__(message)
        self.http_status = http_status


class FitServer:
    """The asyncio network edge over one :class:`MicroBatchScheduler`.

    Parameters
    ----------
    scheduler:
        The scheduler serving the traffic; its :class:`Telemetry` hub also
        receives the network-edge counters and gauges.
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read it back from
        :attr:`port` after :meth:`start`).
    submit_timeout_s:
        How long HTTP submits ride scheduler intake backpressure before
        answering 429.
    max_message_bytes:
        Ceiling on one HTTP request body.
    write_buffer_high:
        Transport high-water mark; response writes ``drain()`` against it so
        OS-level buffering stays bounded per connection.
    """

    def __init__(
        self,
        scheduler: MicroBatchScheduler,
        *,
        host: str = config.DEFAULT_NET_HOST,
        port: int = config.DEFAULT_NET_PORT,
        submit_timeout_s: float = config.DEFAULT_SUBMIT_TIMEOUT_S,
        max_message_bytes: int = config.DEFAULT_MAX_MESSAGE_BYTES,
        write_buffer_high: int = 64 * 1024,
    ) -> None:
        self.scheduler = scheduler
        self.telemetry = scheduler.telemetry
        self.host = host
        self.port = int(port)
        self.submit_timeout_s = float(submit_timeout_s)
        self.max_message_bytes = int(max_message_bytes)
        self.write_buffer_high = int(write_buffer_high)
        self._server: asyncio.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()
        # Submits that would block on scheduler intake backpressure (and
        # every batch submit) run here, off the event loop.  Two threads
        # suffice: the queue behind them preserves arrival order under
        # overload.
        self._submit_executor = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="repro-net-submit"
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> "FitServer":
        """Bind and start accepting connections; resolves the real port."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(self._on_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        """Serve until cancelled (the CLI foreground path)."""
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def aclose(self) -> None:
        """Stop listening, close open connections, release the executor."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for writer in list(self._writers):
            writer.close()
        tasks = list(self._conn_tasks)
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        self._submit_executor.shutdown(wait=True)

    def stats(self) -> dict:
        """Bind address and the number of open connections."""
        return {"host": self.host, "port": self.port, "connections": len(self._writers)}

    # ------------------------------------------------------------------
    # Scheduler bridge
    # ------------------------------------------------------------------

    async def _submit(self, wire: WireFit):
        """Submit one request and await its thread-backed future.

        The non-blocking submit runs on the loop itself; only intake
        backpressure sends it to the executor, which waits for room for up
        to ``submit_timeout_s`` before the ``queue.Full`` becomes a 429.
        """
        request = wire.to_request()
        try:
            future = self.scheduler.submit(request, timeout=0)
        except queue.Full:
            future = await self._loop.run_in_executor(
                self._submit_executor,
                lambda: self.scheduler.submit(request, timeout=self.submit_timeout_s),
            )
        return await asyncio.wrap_future(future)

    # ------------------------------------------------------------------
    # HTTP layer
    # ------------------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self._writers.add(writer)
        self.telemetry.adjust_gauge("net_connections", 1)
        try:
            writer.transport.set_write_buffer_limits(high=self.write_buffer_high)
            await self._connection_loop(reader, writer)
        except (
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            ConnectionError,
            TimeoutError,
        ):
            pass  # peer went away or spoke garbage; nothing to answer
        except asyncio.CancelledError:
            pass  # server shutdown
        finally:
            self._conn_tasks.discard(task)
            self._writers.discard(writer)
            self.telemetry.adjust_gauge("net_connections", -1)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _connection_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                request = await self._read_http_request(reader)
            except _RefusedHead as exc:
                self.telemetry.increment("net_http_requests")
                self.telemetry.increment("net_http_errors")
                payload = self._error_payload(exc, exc.http_status)
                await self._write_http_response(
                    writer, exc.http_status, payload, keep_alive=False
                )
                return
            if request is None:
                return
            method, target, headers, body = request
            self.telemetry.increment("net_http_requests")
            status, payload = await self._dispatch(method, target, body)
            if status >= 400:
                self.telemetry.increment("net_http_errors")
            keep_alive = headers.get("connection", "").lower() != "close"
            await self._write_http_response(writer, status, payload, keep_alive=keep_alive)
            if not keep_alive:
                return

    async def _read_http_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict, bytes] | None:
        """Read one request; ``None`` when the peer closed before a request line.

        Raises :class:`_RefusedHead` for a head the edge will not serve: 400
        for a malformed request line, a head line longer than the stream
        limit, more than 256 header lines or a ``Content-Length`` that is not
        a non-negative integer, and 413 for a body above
        ``max_message_bytes``.
        """
        try:
            line = await reader.readline()
            if not line:
                return None
            parts = line.decode("latin-1").split(None, 2)
            if len(parts) != 3:
                raise _RefusedHead(f"malformed request line {line[:80]!r}", 400)
            method, target, _version = parts
            headers: dict[str, str] = {}
            for _ in range(256):
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _sep, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            else:
                raise _RefusedHead("more than 256 header lines", 400)
        except ValueError:  # StreamReader.readline past the stream limit
            raise _RefusedHead("request head line longer than the stream limit", 400) from None
        body = b""
        length = headers.get("content-length")
        if length is not None:
            if not (length.isascii() and length.isdigit()):
                raise _RefusedHead(
                    f"Content-Length must be a non-negative integer, got {length!r}", 400
                )
            length = int(length)
            if length > self.max_message_bytes:
                raise _RefusedHead(
                    f"a {length}-byte body exceeds the {self.max_message_bytes}-byte limit",
                    413,
                )
            body = await reader.readexactly(length)
        return method.upper(), target, headers, body

    async def _write_http_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: str,
        *,
        keep_alive: bool = True,
    ) -> None:
        body = payload.encode()
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Response')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    async def _dispatch(self, method: str, target: str, body: bytes) -> tuple[int, str]:
        """Route one plain HTTP request to its handler (never raises)."""
        target = target.split("?", 1)[0]
        try:
            if target == "/v1/fit":
                if method != "POST":
                    return 405, self._error_payload(ProtocolError("POST required"), 405)
                self.telemetry.increment("net_route_fit")
                return await self._handle_fit(body)
            if target == "/v1/fit/batch":
                if method != "POST":
                    return 405, self._error_payload(ProtocolError("POST required"), 405)
                self.telemetry.increment("net_route_batch_fit")
                return await self._handle_batch(body)
            if target == "/healthz":
                self.telemetry.increment("net_route_healthz")
                return self._handle_healthz()
            if target == "/metrics":
                self.telemetry.increment("net_route_metrics")
                return 200, json.dumps(
                    dict(self.telemetry.snapshot(), server=self.stats())
                )
            if target == "/pool":
                self.telemetry.increment("net_route_pool")
                stats = self.scheduler.stats()
                stats.pop("telemetry", None)
                return 200, json.dumps(stats, default=repr)
            if target == "/":
                self.telemetry.increment("net_route_index")
                return 200, json.dumps(
                    {
                        "service": "repro-fit-service",
                        "protocol_versions": sorted(SUPPORTED_VERSIONS),
                        "routes": [
                            "POST /v1/fit",
                            "POST /v1/fit/batch",
                            "GET /healthz",
                            "GET /metrics",
                            "GET /pool",
                        ],
                    }
                )
            return 404, self._error_payload(
                ProtocolError(f"no route {target!r}"), 404
            )
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            self.telemetry.increment("net_errors")
            frame = error_to_frame(exc)
            return frame.http_status, Frame("error", frame.to_payload()).encode()

    @staticmethod
    def _error_payload(exc: Exception, status: int | None = None) -> str:
        frame = error_to_frame(exc)
        if status is not None:
            frame.http_status = status
        return Frame("error", frame.to_payload()).encode()

    async def _handle_fit(self, body: bytes) -> tuple[int, str]:
        frame = decode_frame(body)
        if frame.kind != "fit":
            raise ProtocolError(f"expected a fit frame, got {frame.kind!r}")
        wire = WireFit.from_payload(frame.payload)
        try:
            result = await self._submit(wire)
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            self.telemetry.increment("net_errors")
            error = error_to_frame(exc, tag=wire.tag)
            return error.http_status, Frame("error", error.to_payload(), id=frame.id).encode()
        payload = WireResult.from_result(
            result, tag=wire.tag, include_diagnostics=wire.include_diagnostics
        ).to_payload()
        return 200, Frame("result", payload, id=frame.id).encode()

    async def _handle_batch(self, body: bytes) -> tuple[int, str]:
        frame = decode_frame(body)
        if frame.kind != "batch_fit":
            raise ProtocolError(f"expected a batch_fit frame, got {frame.kind!r}")
        entries = frame.payload.get("requests")
        if not isinstance(entries, list):
            raise ProtocolError("batch_fit payload must carry a 'requests' array")
        # Each entry decodes alone: a malformed one is answered with its own
        # 400 item and its valid neighbours are still solved.
        wires: list[WireFit | ProtocolError] = []
        for entry in entries:
            try:
                wires.append(WireFit.from_payload(entry))
            except ProtocolError as exc:
                wires.append(exc)
        requests = [wire.to_request() for wire in wires if isinstance(wire, WireFit)]

        def submit_many():
            return self.scheduler.submit_many(requests, timeout=self.submit_timeout_s)

        overflow = None
        try:
            futures = await self._loop.run_in_executor(self._submit_executor, submit_many)
        except queue.Full as exc:  # IntakeOverflow carries the split
            overflow = exc
            rejected = {id(request) for request in getattr(exc, "rejected", [])}
            accepted = iter(getattr(exc, "accepted", []))
            futures = [
                None if id(request) in rejected else next(accepted)
                for request in requests
            ]
        submitted = iter(futures)
        items = []
        for entry, wire in zip(entries, wires):
            if isinstance(wire, ProtocolError):
                self.telemetry.increment("net_errors")
                tag = entry.get("tag", "") if isinstance(entry, dict) else ""
                error = error_to_frame(wire, tag=tag if isinstance(tag, str) else "")
                items.append({"kind": "error", "payload": error.to_payload()})
                continue
            future = next(submitted)
            if future is None:
                error = error_to_frame(overflow, tag=wire.tag)
                items.append({"kind": "error", "payload": error.to_payload()})
                continue
            try:
                result = await asyncio.wrap_future(future)
            except BaseException as exc:
                self.telemetry.increment("net_errors")
                items.append(
                    {"kind": "error", "payload": error_to_frame(exc, tag=wire.tag).to_payload()}
                )
                continue
            items.append(
                {
                    "kind": "result",
                    "payload": WireResult.from_result(
                        result, tag=wire.tag, include_diagnostics=wire.include_diagnostics
                    ).to_payload(),
                }
            )
        status = 429 if overflow is not None else 200
        return status, Frame("batch_result", {"results": items}, id=frame.id).encode()

    def _handle_healthz(self) -> tuple[int, str]:
        scheduler = self.scheduler
        healthy = not scheduler.closed and not scheduler.crashed
        payload = {
            "status": "ok" if healthy else "down",
            "crashed": scheduler.crashed,
            "closed": scheduler.closed,
            "queued": scheduler.queue_depth(),
            "outstanding": scheduler.outstanding(),
            "protocol_versions": sorted(SUPPORTED_VERSIONS),
        }
        return (200 if healthy else 503), json.dumps(payload)

# ----------------------------------------------------------------------
# Thread-hosted server (CLI and tests)
# ----------------------------------------------------------------------


class ServerHandle:
    """A :class:`FitServer` running on its own event-loop thread.

    The blocking world's view of the server: tests and the CLI bench drive
    real sockets against :attr:`port` while the event loop runs on the
    named daemon thread ``repro-net-server``.  :meth:`close` is idempotent
    and joins the thread, so fixtures can leak-check by thread name.
    """

    def __init__(
        self, server: FitServer, loop: asyncio.AbstractEventLoop, thread: threading.Thread
    ) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread
        self._closed = False

    @property
    def host(self) -> str:
        """Bind host of the running server."""
        return self.server.host

    @property
    def port(self) -> int:
        """The actual bound TCP port (resolved for ephemeral binds)."""
        return self.server.port

    def stats(self) -> dict:
        """Live :meth:`FitServer.stats` (safe to read cross-thread)."""
        return self.server.stats()

    def close(self, timeout: float = 10.0) -> None:
        """Stop the server, close connections and join the loop thread."""
        if self._closed:
            return
        self._closed = True
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def serve_in_thread(
    scheduler: MicroBatchScheduler,
    *,
    host: str = config.DEFAULT_NET_HOST,
    port: int = 0,
    ready_timeout: float = 10.0,
    **server_kwargs,
) -> ServerHandle:
    """Start a :class:`FitServer` on a dedicated event-loop thread.

    Parameters
    ----------
    scheduler:
        The scheduler to serve (its lifecycle stays the caller's).
    host, port:
        Bind address; the default ``port=0`` takes an ephemeral port.
    ready_timeout:
        Seconds to wait for the listening socket before giving up.
    **server_kwargs:
        Forwarded to :class:`FitServer`.

    Returns
    -------
    ServerHandle
        Live handle; close it (or use it as a context manager) to stop the
        server and join its thread.
    """
    server = FitServer(scheduler, host=host, port=port, **server_kwargs)
    started = threading.Event()
    boot_error: list[BaseException] = []
    loop_box: list[asyncio.AbstractEventLoop] = []

    def run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        loop_box.append(loop)
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:  # bind failure etc.
            boot_error.append(exc)
            started.set()
            loop.close()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(server.aclose())
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    thread = threading.Thread(target=run, name="repro-net-server", daemon=True)
    thread.start()
    if not started.wait(ready_timeout):
        raise RuntimeError("the server thread did not come up in time")
    if boot_error:
        thread.join(1.0)
        raise boot_error[0]
    return ServerHandle(server, loop_box[0], thread)
