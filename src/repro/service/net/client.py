"""Blocking client for the fit service network edge.

:class:`FitHTTPClient` is a thin, dependency-free client over the stdlib
socket stack, speaking the :mod:`repro.service.net.protocol` frames as
request/response over one raw HTTP/1.1 keep-alive socket.  Typed errors
come back as the *original* taxonomy exceptions via
:func:`~repro.service.net.protocol.frame_to_error`, so remote calls fail
the same way in-process calls do.  It is what the CLI bench and the
integration test layer drive against real sockets; it is deliberately
synchronous so plain threads (and the seeded load generator) can use it
without an event loop.
"""

from __future__ import annotations

import json
import socket

from repro import config
from repro.service.net.protocol import (
    Frame,
    ProtocolError,
    RemoteError,
    WireError,
    WireFit,
    WireResult,
    decode_frame,
    frame_to_error,
)

__all__ = ["FitHTTPClient"]

#: Ceiling on a response head (status line plus headers), in bytes.
_MAX_HEAD_BYTES = 65536


def _raise_from_frame(frame: Frame) -> None:
    """Raise the typed exception an error frame describes."""
    raise frame_to_error(WireError.from_payload(frame.payload))


def _coerce_wire_fit(wire: WireFit | dict) -> WireFit:
    """Accept a :class:`WireFit` or its plain-dict payload form."""
    if isinstance(wire, WireFit):
        return wire
    if isinstance(wire, dict):
        return WireFit.from_payload(wire)
    raise TypeError(f"expected a WireFit or dict payload, got {type(wire).__name__}")


class FitHTTPClient:
    """Blocking HTTP client of the fit service edge.

    One keep-alive socket per client instance, opened on first use with
    ``TCP_NODELAY``; instances are not thread-safe, so concurrent callers
    each hold their own — which is exactly how the bench models independent
    clients.  Each request leaves in one ``sendall``; the response parser
    reads only what the server sends: a status line, headers, and a
    ``Content-Length`` body.  A response without ``Content-Length`` raises
    :class:`ProtocolError` (the client never waits for a close that may not
    come).  A keep-alive connection the server dropped is reopened once per
    request; a ``Connection: close`` response closes the socket, and the
    next request opens a fresh one.

    Parameters
    ----------
    host, port:
        Address of a running :class:`~repro.service.net.server.FitServer`.
    timeout:
        Socket timeout in seconds for each request/response round-trip.
    """

    def __init__(
        self,
        host: str = config.DEFAULT_NET_HOST,
        port: int = config.DEFAULT_NET_PORT,
        *,
        timeout: float = 60.0,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._buffer = bytearray()  # bytes received past the last response

    def close(self) -> None:
        """Close the underlying keep-alive connection."""
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        self._buffer.clear()

    def __enter__(self) -> "FitHTTPClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- low level ------------------------------------------------------

    def _connect(self) -> socket.socket:
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        return sock

    def _recv_into_buffer(self, sock: socket.socket) -> None:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buffer += chunk

    def _read_response(self, sock: socket.socket) -> tuple[int, dict, bytes]:
        buffer = self._buffer
        while (end := buffer.find(b"\r\n\r\n")) < 0:
            if len(buffer) > _MAX_HEAD_BYTES:
                raise ProtocolError("oversized HTTP response head")
            self._recv_into_buffer(sock)
        status_line, *lines = buffer[:end].decode("latin-1").split("\r\n")
        version, _sep, rest = status_line.partition(" ")
        code = rest[:3]
        if not version.startswith("HTTP/") or len(code) != 3 or not code.isdigit():
            raise ProtocolError(f"malformed HTTP status line {status_line!r}")
        headers = {}
        for line in lines:
            name, _sep, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = headers.get("content-length", "")
        if not length.isdigit():
            raise ProtocolError("HTTP response carries no valid Content-Length")
        del buffer[: end + 4]
        length = int(length)
        while len(buffer) < length:
            self._recv_into_buffer(sock)
        body = bytes(buffer[:length])
        del buffer[:length]
        return int(code), headers, body

    def _exchange(self, request: bytes) -> tuple[int, dict, bytes]:
        sock = self._sock
        reused = sock is not None
        if sock is None:
            sock = self._connect()
        try:
            sock.sendall(request)
            return self._read_response(sock)
        except ConnectionError:
            # A keep-alive connection the server dropped (restart, idle
            # close) before answering is reopened once; anything else —
            # a fresh connection failing, a half-received response —
            # propagates.
            if not reused or self._buffer:
                raise
        self.close()
        sock = self._connect()
        sock.sendall(request)
        return self._read_response(sock)

    def _round_trip(self, method: str, path: str, body: str | None = None) -> tuple[int, bytes]:
        head = f"{method} {path} HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
        if body is None:
            request = (head + "\r\n").encode("latin-1")
        else:
            data = body.encode()
            request = (
                f"{head}Content-Type: application/json\r\n"
                f"Content-Length: {len(data)}\r\n\r\n"
            ).encode("latin-1") + data
        try:
            status, headers, data = self._exchange(request)
        except BaseException:
            # The stream position is unknown after any failure mid-exchange.
            self.close()
            raise
        if headers.get("connection", "").lower() == "close":
            self.close()
        return status, data

    def _call(self, path: str, frame: Frame, expect: str) -> Frame:
        status, data = self._round_trip("POST", path, frame.encode())
        reply = decode_frame(data)
        if reply.kind == "error":
            _raise_from_frame(reply)
        if reply.kind != expect:
            raise RemoteError(
                f"expected a {expect} frame, got {reply.kind!r}", http_status=status
            )
        return reply

    def get_json(self, path: str) -> dict:
        """GET an ops route (``/healthz``, ``/metrics``, ...) as a dict."""
        _status, data = self._round_trip("GET", path)
        return json.loads(data)

    # -- fit API --------------------------------------------------------

    def fit(self, wire: WireFit | dict) -> WireResult:
        """Solve one fit remotely; raises the typed taxonomy on failure.

        Accepts a :class:`WireFit` or its plain-dict payload form (the
        latter is validated through :meth:`WireFit.from_payload`).
        """
        wire = _coerce_wire_fit(wire)
        reply = self._call("/v1/fit", Frame("fit", wire.to_payload()), "result")
        return WireResult.from_payload(reply.payload)

    def fit_batch(self, wires: list[WireFit | dict]) -> list[WireResult | Exception]:
        """Solve a batch remotely; one result *or* typed exception per entry.

        Mirrors the scheduler's ``submit_many`` overflow contract: a partial
        intake failure yields per-entry
        :class:`~repro.service.errors.IntakeOverflow` exceptions for the
        rejected tail while accepted entries still return results.
        """
        payload = {"requests": [_coerce_wire_fit(wire).to_payload() for wire in wires]}
        status, data = self._round_trip("POST", "/v1/fit/batch", Frame("batch_fit", payload).encode())
        reply = decode_frame(data)
        if reply.kind == "error":
            _raise_from_frame(reply)
        if reply.kind != "batch_result":
            raise RemoteError(
                f"expected a batch_result frame, got {reply.kind!r}", http_status=status
            )
        out: list[WireResult | Exception] = []
        for item in reply.payload.get("results", []):
            if not isinstance(item, dict):
                raise ProtocolError("batch_result entries must be objects")
            if item.get("kind") == "result":
                out.append(WireResult.from_payload(item.get("payload", {})))
            else:
                out.append(frame_to_error(WireError.from_payload(item.get("payload", {}))))
        return out

    def healthz(self) -> dict:
        """The ``/healthz`` liveness document."""
        return self.get_json("/healthz")

    def metrics(self) -> dict:
        """The live ``/metrics`` telemetry snapshot."""
        return self.get_json("/metrics")

    def pool(self) -> dict:
        """The ``/pool`` scheduler/session-pool stats document."""
        return self.get_json("/pool")
