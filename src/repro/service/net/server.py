"""Asyncio HTTP + WebSocket front end over the micro-batching scheduler.

:class:`FitServer` is the network edge of the fit service: a dependency-free
``asyncio`` server speaking HTTP/1.1 (keep-alive) for request/response
traffic and RFC 6455 WebSockets for streaming, with the versioned JSON
frame protocol of :mod:`repro.service.net.protocol` on both.

Routes (schema v1):

* ``POST /v1/fit`` — one fit frame in, one result (or typed error) frame
  out; the HTTP status mirrors the error taxonomy mapping.
* ``POST /v1/fit/batch`` — a batch_fit frame in, a batch_result frame out
  with one result-or-error item per request (a malformed entry gets its own
  400 item, and intake overflow splits the batch per the accepted/rejected
  contract instead of failing it).
* ``GET /v1/stream`` — WebSocket upgrade; fit frames with correlation ids
  stream in, result/error frames stream out as solves finish.
* ``GET /healthz``, ``GET /metrics``, ``GET /pool``, ``GET /backends`` —
  the ops surface (liveness, live ``Telemetry.snapshot()``, pool/session
  stats, active and requested kernel backend).

Two properties are load-bearing and regression-tested:

* **Thread bridge** — the scheduler's futures are thread-backed.  A fit
  is submitted straight from the event loop with ``timeout=0``, which
  never blocks: validation, the cache lookup and the enqueue run inline,
  with no thread handoff.  Only when that raises :class:`queue.Full`
  (intake full, or a bulk producer holding the accept lock) does the
  submit move to a small executor and ride the backpressure there for up
  to ``submit_timeout_s``, so the loop keeps serving other connections.
  Batch submits always take the executor.  Futures are awaited via
  ``asyncio.wrap_future``; responses stay bit-identical to in-process
  ``scheduler.submit`` calls.
* **Slow-consumer backpressure** — each stream connection has a bounded
  in-flight window (semaphore) released only after its response bytes are
  written *and drained*.  A stalled reader therefore stops its own
  intake at ``max_inflight`` outstanding fits — server memory stays
  bounded and other connections keep their own pace — instead of growing
  an unbounded output buffer.
"""

from __future__ import annotations

import asyncio
import json
import queue
import threading
from concurrent.futures import ThreadPoolExecutor

from repro import backends, config
from repro.service.net import ws
from repro.service.net.protocol import (
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
    Frame,
    ProtocolError,
    VersionMismatch,
    WireFit,
    WireHello,
    WireResult,
    decode_frame,
    error_to_frame,
)
from repro.service.scheduler import MicroBatchScheduler

__all__ = ["FitServer", "ServerHandle", "serve_in_thread"]

#: Reason strings for the handful of HTTP statuses the edge answers with.
_REASONS = {
    200: "OK",
    101: "Switching Protocols",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Per-route telemetry counter names (``net_route_<name>``).
_ROUTES = ("fit", "batch_fit", "stream", "healthz", "metrics", "pool", "backends", "index")


class _StreamState:
    """Book-keeping of one WebSocket stream connection.

    Tracks the in-flight window occupancy and its peak so the backpressure
    invariant (``peak_inflight <= window``) is observable from tests and
    the ops surface without racing the event loop.
    """

    def __init__(self, window: int) -> None:
        self.window = window
        self.received = 0
        self.resolved = 0
        self.errors = 0
        self.inflight = 0
        self.peak_inflight = 0
        self.peak_outbox = 0

    def on_submit(self) -> None:
        """Count one accepted frame entering the in-flight window."""
        self.received += 1
        self.inflight += 1
        self.peak_inflight = max(self.peak_inflight, self.inflight)

    def on_delivered(self, *, error: bool) -> None:
        """Count one frame leaving the window after its reply was written."""
        self.inflight -= 1
        self.resolved += 1
        if error:
            self.errors += 1

    def stats(self) -> dict:
        """Return a snapshot of the stream's window/outbox counters."""
        return {
            "window": self.window,
            "received": self.received,
            "resolved": self.resolved,
            "errors": self.errors,
            "inflight": self.inflight,
            "peak_inflight": self.peak_inflight,
            "peak_outbox": self.peak_outbox,
        }


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
    max_inflight:
        Per-connection in-flight window of the streaming route — the
        slow-consumer backpressure bound.
    submit_timeout_s:
        How long HTTP submits ride scheduler intake backpressure before
        answering 429.
    max_message_bytes:
        Ceiling on one HTTP body / WebSocket message.
    write_buffer_high:
        Transport high-water mark; stream writers ``drain()`` against it so
        OS-level buffering stays bounded per connection.
    """

    def __init__(
        self,
        scheduler: MicroBatchScheduler,
        *,
        host: str = config.DEFAULT_NET_HOST,
        port: int = config.DEFAULT_NET_PORT,
        max_inflight: int = config.DEFAULT_STREAM_WINDOW,
        submit_timeout_s: float = config.DEFAULT_SUBMIT_TIMEOUT_S,
        max_message_bytes: int = config.DEFAULT_MAX_MESSAGE_BYTES,
        write_buffer_high: int = 64 * 1024,
    ) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        self.scheduler = scheduler
        self.telemetry = scheduler.telemetry
        self.host = host
        self.port = int(port)
        self.max_inflight = int(max_inflight)
        self.submit_timeout_s = float(submit_timeout_s)
        self.max_message_bytes = int(max_message_bytes)
        self.write_buffer_high = int(write_buffer_high)
        self._server: asyncio.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()
        self._streams: dict[int, _StreamState] = {}
        self._stream_ids = 0
        self._peak_stream_inflight = 0
        self._lock = threading.Lock()
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
        """Connection/stream gauges and per-stream window book-keeping."""
        with self._lock:
            streams = {key: state.stats() for key, state in self._streams.items()}
        return {
            "host": self.host,
            "port": self.port,
            "max_inflight": self.max_inflight,
            "connections": len(self._writers),
            "streams": streams,
            "peak_stream_inflight": self._peak_stream_inflight,
        }

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

    async def _solve_frame(self, frame_id: str | None, wire: WireFit) -> Frame:
        """One fit in, one result-or-error frame out (never raises)."""
        try:
            result = await self._submit(wire)
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            self.telemetry.increment("net_errors")
            return Frame(
                "error", error_to_frame(exc, tag=wire.tag).to_payload(), id=frame_id
            )
        payload = WireResult.from_result(
            result, tag=wire.tag, include_diagnostics=wire.include_diagnostics
        ).to_payload()
        return Frame("result", payload, id=frame_id)

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
            ws.WebSocketProtocolError,
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
            request = await self._read_http_request(reader)
            if request is None:
                return
            method, target, headers, body = request
            self.telemetry.increment("net_http_requests")
            if (
                target == "/v1/stream"
                and headers.get("upgrade", "").lower() == "websocket"
            ):
                self.telemetry.increment("net_route_stream")
                await self._handle_stream(reader, writer, headers)
                return
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
        try:
            line = await reader.readline()
        except ValueError:  # line longer than the stream limit
            return None
        if not line:
            return None
        try:
            method, target, _version = line.decode("latin-1").split(None, 2)
        except ValueError:
            return None
        headers: dict[str, str] = {}
        for _ in range(256):
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _sep, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            return None
        body = b""
        length = headers.get("content-length")
        if length is not None:
            length = int(length)
            if length > self.max_message_bytes:
                return None
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
            if target == "/backends":
                self.telemetry.increment("net_route_backends")
                return 200, json.dumps(
                    {
                        "active": backends.active_backend().name,
                        "requested": backends.requested_backend(),
                    }
                )
            if target == "/":
                self.telemetry.increment("net_route_index")
                return 200, json.dumps(
                    {
                        "service": "repro-fit-service",
                        "protocol_versions": sorted(SUPPORTED_VERSIONS),
                        "routes": [
                            "POST /v1/fit",
                            "POST /v1/fit/batch",
                            "GET /v1/stream (websocket)",
                            "GET /healthz",
                            "GET /metrics",
                            "GET /pool",
                            "GET /backends",
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
        response = await self._solve_frame(frame.id, wire)
        if response.kind == "error":
            return int(response.payload.get("http_status", 500)), response.encode()
        return 200, response.encode()

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

    # ------------------------------------------------------------------
    # WebSocket streaming layer
    # ------------------------------------------------------------------

    async def _handle_stream(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter, headers: dict
    ) -> None:
        key = headers.get("sec-websocket-key")
        if not key:
            await self._write_http_response(
                writer,
                400,
                self._error_payload(ProtocolError("missing Sec-WebSocket-Key")),
                keep_alive=False,
            )
            return
        writer.write(
            (
                "HTTP/1.1 101 Switching Protocols\r\n"
                "Upgrade: websocket\r\n"
                "Connection: Upgrade\r\n"
                f"Sec-WebSocket-Accept: {ws.accept_key(key)}\r\n"
                "\r\n"
            ).encode("latin-1")
        )
        await writer.drain()
        state = _StreamState(self.max_inflight)
        with self._lock:
            self._stream_ids += 1
            stream_id = self._stream_ids
            self._streams[stream_id] = state
        window = asyncio.Semaphore(self.max_inflight)
        # The outbox is bounded by the window: a frame enters only after a
        # window slot was taken, so qsize can never exceed max_inflight (+
        # control frames, which are never window-gated but are tiny).
        outbox: asyncio.Queue = asyncio.Queue()
        tasks: set[asyncio.Task] = set()
        writer_task = asyncio.create_task(
            self._stream_writer(writer, outbox, window, state)
        )
        try:
            await outbox.put((ws.OP_TEXT, self._hello_frame().encode().encode(), None))
            await self._stream_reader_loop(reader, outbox, window, state, tasks)
        finally:
            for task in tasks:
                task.cancel()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            # Flush frames already queued (error frames, the close echo)
            # before tearing the writer down: a peer that spoke a bad
            # version must still receive the typed error it was sent.
            await outbox.put((None, b"", None))
            try:
                await asyncio.wait_for(asyncio.shield(writer_task), timeout=5.0)
            except BaseException:  # timeout, dead peer, or our own cancel
                writer_task.cancel()
                await asyncio.gather(writer_task, return_exceptions=True)
            # Solves cancelled (or responses never drained) still hold
            # in-flight accounting; settle the gauge for this connection.
            if state.inflight:
                self.telemetry.adjust_gauge("net_ws_inflight", -state.inflight)
            with self._lock:
                self._peak_stream_inflight = max(
                    self._peak_stream_inflight, state.peak_inflight
                )
                self._streams.pop(stream_id, None)

    def _hello_frame(self) -> Frame:
        return Frame(
            "hello",
            WireHello(max_inflight=self.max_inflight).to_payload(),
            version=PROTOCOL_VERSION,
        )

    async def _stream_reader_loop(
        self,
        reader: asyncio.StreamReader,
        outbox: asyncio.Queue,
        window: asyncio.Semaphore,
        state: _StreamState,
        tasks: set[asyncio.Task],
    ) -> None:
        while True:
            opcode, payload = await ws.read_message(
                reader.readexactly, require_masked=True, max_size=self.max_message_bytes
            )
            if opcode == ws.OP_CLOSE:
                await outbox.put((ws.OP_CLOSE, payload[:2], None))
                return
            if opcode == ws.OP_PING:
                await outbox.put((ws.OP_PONG, payload, None))
                continue
            if opcode == ws.OP_PONG:
                continue
            self.telemetry.increment("net_ws_messages")
            try:
                frame = decode_frame(payload)
            except VersionMismatch as exc:
                await self._stream_error(outbox, None, exc, state)
                await outbox.put((ws.OP_CLOSE, b"\x03\xea", None))  # 1002
                return
            except ProtocolError as exc:
                await self._stream_error(outbox, None, exc, state)
                continue
            if frame.kind == "hello":
                # Client-side negotiation: decode validated the version.
                continue
            if frame.kind != "fit":
                await self._stream_error(
                    outbox,
                    frame.id,
                    ProtocolError(f"streams accept fit frames, got {frame.kind!r}"),
                    state,
                )
                continue
            try:
                wire = WireFit.from_payload(frame.payload)
            except ProtocolError as exc:
                await self._stream_error(outbox, frame.id, exc, state)
                continue
            # Backpressure point: no new solve starts while the window is
            # exhausted, and the window only refills as responses DRAIN to
            # the peer.  A stalled consumer stops being read right here.
            await window.acquire()
            state.on_submit()
            self.telemetry.adjust_gauge("net_ws_inflight", 1)
            task = asyncio.create_task(
                self._stream_solve(frame.id, wire, outbox, state)
            )
            tasks.add(task)
            task.add_done_callback(tasks.discard)

    async def _stream_error(
        self,
        outbox: asyncio.Queue,
        frame_id: str | None,
        exc: Exception,
        state: _StreamState,
    ) -> None:
        state.errors += 1
        self.telemetry.increment("net_errors")
        encoded = Frame("error", error_to_frame(exc).to_payload(), id=frame_id).encode()
        await outbox.put((ws.OP_TEXT, encoded.encode(), None))

    async def _stream_solve(
        self, frame_id: str | None, wire: WireFit, outbox: asyncio.Queue, state: _StreamState
    ) -> None:
        response = await self._solve_frame(frame_id, wire)
        state.peak_outbox = max(state.peak_outbox, outbox.qsize() + 1)
        await outbox.put((ws.OP_TEXT, response.encode().encode(), response.kind == "error"))

    async def _stream_writer(
        self,
        writer: asyncio.StreamWriter,
        outbox: asyncio.Queue,
        window: asyncio.Semaphore,
        state: _StreamState,
    ) -> None:
        while True:
            opcode, payload, is_error = await outbox.get()
            if opcode is None:  # teardown sentinel: the outbox is flushed
                return
            writer.write(ws.build_frame(opcode, payload))
            try:
                await writer.drain()
            finally:
                if is_error is not None:  # a window-gated result/error frame
                    # Only after the response bytes drained does the window
                    # refill — the slow-consumer backpressure contract.
                    state.on_delivered(error=is_error)
                    self.telemetry.adjust_gauge("net_ws_inflight", -1)
                    self.telemetry.increment("net_ws_results")
                    window.release()
            if opcode == ws.OP_CLOSE:
                return


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
