"""Tests of the raw-socket HTTP client against a scripted socket stub.

The stub is a loopback listener whose connections each run one script, so
the tests pin down exactly what the server does on the wire: close an idle
keep-alive connection, answer ``Connection: close``, or omit
``Content-Length``.  The client must reconnect once, honour the close, and
raise a typed error instead of waiting forever.
"""

import json
import socket
import threading
import time

import pytest

from repro.service.net import FitHTTPClient, ProtocolError

BODY = json.dumps({"status": "ok"}).encode()


def response(body: bytes = BODY, *, connection: str = "keep-alive", length: bool = True) -> bytes:
    head = f"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nConnection: {connection}\r\n"
    if length:
        head += f"Content-Length: {len(body)}\r\n"
    return (head + "\r\n").encode("latin-1") + body


def read_request(conn: socket.socket) -> bytes:
    """Read one request head (the client's GETs carry no body)."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(4096)
        if not chunk:
            return b""
        data += chunk
    return data


class SocketStub:
    """Loopback listener running one script per accepted connection."""

    def __init__(self, scripts) -> None:
        self.scripts = list(scripts)
        self.requests: list[bytes] = []
        self.accepted = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(10.0)
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        for script in self.scripts:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            self.accepted += 1
            with conn:
                script(self, conn)

    def serve(self, conn: socket.socket, reply: bytes) -> None:
        self.requests.append(read_request(conn))
        conn.sendall(reply)

    def close(self) -> None:
        self._thread.join(timeout=10.0)
        self._listener.close()

    def __enter__(self) -> "SocketStub":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def test_reconnects_once_after_an_idle_keep_alive_close():
    def answer_then_close(stub, conn):
        stub.serve(conn, response())  # keep-alive promised, then dropped

    def answer(stub, conn):
        stub.serve(conn, response())
        read_request(conn)  # hold the connection until the client closes

    with SocketStub([answer_then_close, answer]) as stub:
        with FitHTTPClient("127.0.0.1", stub.port, timeout=5.0) as client:
            assert client.healthz() == {"status": "ok"}
            time.sleep(0.05)  # the server's close lands before the next call
            assert client.healthz() == {"status": "ok"}
    assert stub.accepted == 2
    assert len(stub.requests) == 2
    assert all(request.startswith(b"GET /healthz HTTP/1.1\r\n") for request in stub.requests)


def test_connection_close_response_then_a_second_call():
    def answer_and_close(stub, conn):
        stub.serve(conn, response(connection="close"))

    with SocketStub([answer_and_close, answer_and_close]) as stub:
        with FitHTTPClient("127.0.0.1", stub.port, timeout=5.0) as client:
            assert client.healthz() == {"status": "ok"}
            assert client._sock is None  # honoured: the socket is gone
            assert client.healthz() == {"status": "ok"}
    assert stub.accepted == 2


def test_missing_content_length_raises_a_typed_error_without_hanging():
    release = threading.Event()

    def answer_without_length(stub, conn):
        stub.serve(conn, response(length=False))
        release.wait(10.0)  # keep the connection open: no EOF to wait for

    with SocketStub([answer_without_length]) as stub:
        with FitHTTPClient("127.0.0.1", stub.port, timeout=5.0) as client:
            started = time.perf_counter()
            with pytest.raises(ProtocolError, match="Content-Length"):
                client.healthz()
            assert time.perf_counter() - started < 2.0
            assert client._sock is None  # the stream position is unknown: dropped
        release.set()
    assert stub.accepted == 1


def test_a_fresh_connection_that_fails_is_not_retried():
    def close_at_once(stub, conn):
        read_request(conn)  # answer nothing

    with SocketStub([close_at_once]) as stub:
        with FitHTTPClient("127.0.0.1", stub.port, timeout=5.0) as client:
            with pytest.raises(ConnectionError):
                client.healthz()
    assert stub.accepted == 1
