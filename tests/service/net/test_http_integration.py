"""End-to-end HTTP integration tests against a live server on real sockets.

The load-bearing property: results fetched over the wire by concurrent
clients are *identical* (to 1e-10, with exact lambda agreement) to direct
one-shot fits — the network edge, like the scheduler under it, changes how
requests travel, never the numbers.  The ops routes must answer with live
data while fit traffic is in flight.
"""

import concurrent.futures
import contextlib
import logging
import socket
import threading
import time

import pytest

from repro.service import (
    IntakeOverflow,
    MicroBatchScheduler,
    SessionPool,
    max_coefficient_gap,
    serial_reference,
)
from repro.service.net import (
    FitHTTPClient,
    Frame,
    ProtocolError,
    WireFit,
    WireResult,
    decode_frame,
    serve_in_thread,
)

NUM_CLIENTS = 4


class TestEquivalenceOverTheWire:
    def test_concurrent_clients_match_serial_reference(
        self, live_server, net_factory, net_workload
    ):
        wires = [WireFit.from_request(request) for request in net_workload]
        slots: list = [None] * len(wires)

        def run_client(offset):
            with FitHTTPClient(live_server.host, live_server.port) as client:
                for index in range(offset, len(wires), NUM_CLIENTS):
                    slots[index] = client.fit(wires[index])

        with concurrent.futures.ThreadPoolExecutor(NUM_CLIENTS) as executor:
            list(executor.map(run_client, range(NUM_CLIENTS)))

        assert all(isinstance(result, WireResult) for result in slots)
        references = serial_reference(net_factory("reference"), net_workload)
        assert max_coefficient_gap(slots, references) <= 1e-10
        # Lambda selections agree exactly — not approximately — across the
        # wire: JSON repr floats round-trip bit-exactly.
        assert [r.lam for r in slots] == [r.lam for r in references]

    def test_batch_route_matches_serial_reference(
        self, live_server, net_factory, net_workload
    ):
        wires = [WireFit.from_request(request) for request in net_workload[:8]]
        with FitHTTPClient(live_server.host, live_server.port) as client:
            results = client.fit_batch(wires)
        assert all(isinstance(result, WireResult) for result in results)
        references = serial_reference(net_factory("reference"), net_workload[:8])
        assert max_coefficient_gap(results, references) <= 1e-10
        assert [r.lam for r in results] == [r.lam for r in references]

    def test_diagnostics_travel_on_request(self, live_server, net_workload):
        wire = WireFit.from_request(net_workload[0], include_diagnostics=True, tag="diag")
        with FitHTTPClient(live_server.host, live_server.port) as client:
            result = client.fit(wire)
        assert result.tag == "diag"
        assert result.diagnostics is not None
        assert set(result.diagnostics) == {"data_misfit", "roughness"}


class TestOpsRoutesUnderLoad:
    def test_healthz_and_metrics_are_live_during_traffic(
        self, live_server, net_workload
    ):
        wires = [WireFit.from_request(request) for request in net_workload]
        stop = threading.Event()
        first_done = threading.Event()
        errors: list = []

        def hammer():
            try:
                with FitHTTPClient(live_server.host, live_server.port) as client:
                    index = 0
                    while not stop.is_set():
                        client.fit(wires[index % len(wires)])
                        first_done.set()
                        index += 1
            except Exception as exc:  # surfaced below, not swallowed
                errors.append(exc)

        worker = threading.Thread(target=hammer)
        worker.start()
        try:
            assert first_done.wait(timeout=60.0), "no fit completed over the wire"
            with FitHTTPClient(live_server.host, live_server.port) as ops:
                health = ops.healthz()
                metrics = ops.metrics()
                pool = ops.pool()
        finally:
            stop.set()
            worker.join(timeout=60.0)
        assert not errors
        assert health["status"] == "ok"
        assert health["crashed"] is False
        assert metrics["counters"]["net_http_requests"] > 0
        assert metrics["counters"]["net_route_fit"] > 0
        assert metrics["counters"]["completed"] > 0
        assert metrics["gauges"]["net_connections"] >= 1
        assert "server" in metrics and metrics["server"]["port"] == live_server.port
        assert "queue_depth" in pool or "pool" in pool

    def test_route_counters_increment_per_route(self, live_server):
        telemetry = live_server.server.telemetry
        with FitHTTPClient(live_server.host, live_server.port) as client:
            before = telemetry.counter("net_route_healthz")
            client.healthz()
            client.healthz()
            assert telemetry.counter("net_route_healthz") == before + 2
            client.metrics()
            assert telemetry.counter("net_route_metrics") >= 1

    def test_index_lists_routes(self, live_server):
        with FitHTTPClient(live_server.host, live_server.port) as client:
            index = client.get_json("/")
        assert index["protocol_versions"] == [1]
        assert any("fit" in route for route in index["routes"])


def _raw_exchange(server, head: bytes) -> bytes:
    """Send ``head`` on a fresh socket and read until the server closes it."""
    with socket.create_connection((server.host, server.port), timeout=30.0) as sock:
        sock.sendall(head)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def _post_head(length: str) -> bytes:
    return f"POST /v1/fit HTTP/1.1\r\nHost: x\r\nContent-Length: {length}\r\n\r\n".encode(
        "latin-1"
    )


class TestMalformedHead:
    @pytest.mark.parametrize(
        "head, status",
        [
            (_post_head("abc"), 400),
            (_post_head("-5"), 400),
            (_post_head(""), 400),
            (_post_head("\u00b2"), 400),
            (_post_head("99999999999"), 413),
            (b"GARBAGE\r\n\r\n", 400),
            (b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70000 + b"\r\n\r\n", 400),
            (b"GET /healthz HTTP/1.1\r\n" + b"X: y\r\n" * 300 + b"\r\n", 400),
        ],
        ids=["letters", "negative", "empty", "unicode-digit", "oversized", "request-line",
             "long-line", "many-headers"],
    )
    def test_answered_then_closed(self, live_server, caplog, head, status):
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            reply = _raw_exchange(live_server, head)
        status_line, _sep, rest = reply.partition(b"\r\n")
        assert status_line.startswith(f"HTTP/1.1 {status} ".encode())
        assert b"Connection: close" in rest
        frame = decode_frame(rest.split(b"\r\n\r\n", 1)[1])
        assert frame.kind == "error" and frame.payload["http_status"] == status
        assert not [r for r in caplog.records if r.name == "asyncio"]
        # The server keeps serving.
        with FitHTTPClient(live_server.host, live_server.port) as client:
            assert client.healthz()["status"] == "ok"


class TestTypedErrorsOverTheWire:
    def test_malformed_fit_raises_protocol_error(self, live_server):
        with FitHTTPClient(live_server.host, live_server.port) as client:
            with pytest.raises(ProtocolError):
                client.fit(WireFit(times=[1.0, 2.0], measurements=[1.0]))

    def test_unknown_route_raises_protocol_error(self, live_server):
        with FitHTTPClient(live_server.host, live_server.port) as client:
            status, data = client._round_trip("GET", "/no/such/route")
        assert status == 404

    @pytest.mark.parametrize(
        "head, status",
        [
            (b"GET /backends HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n", 404),
            (
                b"GET /v1/fit HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
                b"Upgrade: websocket\r\nSec-WebSocket-Version: 13\r\n"
                b"Sec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\r\n\r\n",
                405,
            ),
        ],
        ids=["backends", "websocket-upgrade"],
    )
    def test_no_kernel_listing_and_no_upgrade(self, live_server, head, status):
        # A WebSocket handshake is one more GET: the fit route answers it
        # 405 like any other GET, with no switch of protocols.
        reply = _raw_exchange(live_server, head)
        status_line, _sep, rest = reply.partition(b"\r\n")
        assert status_line.startswith(f"HTTP/1.1 {status} ".encode())
        frame = decode_frame(rest.split(b"\r\n\r\n", 1)[1])
        assert frame.kind == "error" and frame.payload["http_status"] == status

    def test_solver_rejection_maps_to_bad_request(self, live_server, net_workload):
        # A structurally valid frame the solver itself rejects (unknown
        # lambda selection method → ValueError): the edge answers a typed
        # bad_request frame and the client re-raises ProtocolError.
        wire = WireFit.from_request(net_workload[0])
        wire.lambda_method = "no-such-method"
        wire.lam = None
        with FitHTTPClient(live_server.host, live_server.port) as client:
            with pytest.raises(ProtocolError):
                client.fit(wire)

    def test_negative_lambda_answers_400_and_neighbours_still_solve(
        self, live_server, net_factory, net_workload
    ):
        wires = [WireFit.from_request(request) for request in net_workload[:8]]
        wires[3].lam = -1e-3
        with FitHTTPClient(live_server.host, live_server.port) as client:
            status, data = client._round_trip(
                "POST", "/v1/fit", Frame("fit", wires[3].to_payload()).encode()
            )
            batch = client.fit_batch(wires)
        reply = decode_frame(data)
        assert status == 400
        assert reply.kind == "error" and reply.payload["code"] == "bad_request"
        # In a batch the bad entry fails alone; its neighbours still solve.
        assert isinstance(batch[3], ProtocolError)
        valid = [index for index in range(len(wires)) if index != 3]
        references = serial_reference(
            net_factory("reference"), [net_workload[index] for index in valid]
        )
        results = [batch[index] for index in valid]
        assert max_coefficient_gap(results, references) <= 1e-10
        assert [r.lam for r in results] == [r.lam for r in references]
        counters = live_server.server.telemetry.snapshot()["counters"]
        assert counters.get("breaker_trips", 0) == 0
        assert counters.get("degraded_requests", 0) == 0

    @pytest.mark.parametrize(
        "field, value", [("include_diagnostics", "false"), ("deadline_ms", -1.0)]
    )
    def test_invalid_wire_fields_answer_400_not_a_retry_hint(
        self, live_server, net_workload, field, value
    ):
        payload = WireFit.from_request(net_workload[0]).to_payload()
        payload[field] = value
        with FitHTTPClient(live_server.host, live_server.port) as client:
            status, data = client._round_trip(
                "POST", "/v1/fit", Frame("fit", payload).encode()
            )
        reply = decode_frame(data)
        assert status == 400
        assert reply.payload["code"] == "bad_request"
        assert reply.payload["transient"] is False

    def test_partial_batch_overflow_contract(self, live_server, net_workload):
        # An empty batch stays a valid (trivially complete) batch.
        with FitHTTPClient(live_server.host, live_server.port) as client:
            assert client.fit_batch([]) == []

    def test_overflow_errors_reconstruct_client_side(self):
        # The client-side reconstruction the batch route relies on.
        from repro.service.net import WireError, frame_to_error

        frame = WireError(
            code="intake_overflow", message="full", http_status=429,
            transient=True, details={"accepted": 2, "rejected": 1},
        )
        exc = frame_to_error(frame)
        assert isinstance(exc, IntakeOverflow)
        assert exc.transient


@contextlib.contextmanager
def stalled_server(net_factory, workload, submit_timeout_s, hold_shard):
    """A live server over a one-slot queue that its stalled shard keeps full.

    Holding the shard's session lock blocks the runner inside its first
    solve, so after two in-process submits the ``max_queue=1`` queue is
    full and any further submit meets backpressure.  Yields ``(handle,
    release)``; ``release()`` lets the pipeline drain.
    """
    threads_before = set(threading.enumerate())
    scheduler = MicroBatchScheduler(SessionPool(net_factory), max_queue=1)
    handle = serve_in_thread(scheduler, submit_timeout_s=submit_timeout_s)
    release = hold_shard(scheduler)
    try:
        scheduler.submit(workload[0])
        deadline = time.perf_counter() + 5.0
        while scheduler.queue_depth() > 0 and time.perf_counter() < deadline:
            time.sleep(0.001)  # the runner takes the first item, then blocks
        scheduler.submit(workload[1])  # fills the one slot
        assert scheduler.queue_depth() == 1
        yield handle, release
    finally:
        release()
        handle.close()
        scheduler.shutdown()
    leaked = [
        thread.name
        for thread in threading.enumerate()
        if thread not in threads_before and thread.is_alive() and thread.name.startswith("repro-")
    ]
    assert not leaked, f"threads leaked past server teardown: {leaked}"


class TestEventLoopNeverBlocksOnBackpressure:
    """A fit that meets a full intake waits off the loop, for ``submit_timeout_s``."""

    def _post_in_thread(self, handle, wire):
        reply: dict = {}

        def post():
            with FitHTTPClient(handle.host, handle.port) as client:
                reply["status"], reply["data"] = client._round_trip(
                    "POST", "/v1/fit", Frame("fit", wire.to_payload()).encode()
                )

        thread = threading.Thread(target=post)
        thread.start()
        telemetry = handle.server.telemetry
        deadline = time.perf_counter() + 10.0
        while telemetry.counter("net_route_fit") < 1 and time.perf_counter() < deadline:
            time.sleep(0.001)
        return thread, reply

    def test_healthz_answers_while_a_fit_waits_then_the_fit_succeeds(
        self, net_factory, net_workload, hold_shard
    ):
        wire = WireFit.from_request(net_workload[2])
        with stalled_server(net_factory, net_workload, 30.0, hold_shard) as (
            handle,
            release,
        ):
            thread, reply = self._post_in_thread(handle, wire)
            with FitHTTPClient(handle.host, handle.port, timeout=5.0) as ops:
                health = ops.healthz()
            assert health["status"] == "ok" and health["queued"] == 1
            assert thread.is_alive() and not reply  # the fit is still waiting
            release()
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        assert reply["status"] == 200
        result = WireResult.from_payload(decode_frame(reply["data"]).payload)
        reference = serial_reference(net_factory("reference"), [net_workload[2]])
        assert max_coefficient_gap([result], reference) <= 1e-10
        assert result.lam == reference[0].lam

    def test_stall_beyond_submit_timeout_answers_429(
        self, net_factory, net_workload, hold_shard
    ):
        wire = WireFit.from_request(net_workload[2])
        with stalled_server(net_factory, net_workload, 0.3, hold_shard) as (handle, _):
            thread, reply = self._post_in_thread(handle, wire)
            with FitHTTPClient(handle.host, handle.port, timeout=5.0) as ops:
                assert ops.healthz()["status"] == "ok"
            thread.join(timeout=30.0)
            assert not thread.is_alive()
            assert handle.server.scheduler.outstanding() == 2  # nothing was queued
        frame = decode_frame(reply["data"])
        assert reply["status"] == 429
        assert frame.payload["code"] == "intake_overflow"
        assert frame.payload["transient"] is True
