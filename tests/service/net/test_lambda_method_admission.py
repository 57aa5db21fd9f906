"""An unknown ``lambda_method`` fails alone, at admission, and trips nothing.

A selection request (``lam=None``) must name a method
:func:`~repro.core.lambda_selection.select_lambda` knows
(:data:`~repro.core.lambda_selection.LAMBDA_METHODS`).  The scheduler checks
it once per selection key block, next to the ``lambda_grid`` check, and
fails such requests with ``ValueError`` before they queue: a solve-time
failure would count against the shard's circuit breaker and send valid
neighbours down the degraded path.  Over the wire that is a 400, per entry
inside a batch frame.  A fixed-``lam`` request never selects, so its method
is not checked.
"""

import dataclasses

import pytest

from repro.core.lambda_selection import LAMBDA_METHODS
from repro.service import (
    MicroBatchScheduler,
    SessionPool,
    max_coefficient_gap,
    serial_reference,
)
from repro.service.net import FitHTTPClient, Frame, ProtocolError, WireFit, decode_frame

BAD_POSITIONS = (1, 4, 7, 10, 13, 16)
FIXED_POSITION = 3  # a fixed-lam request naming an unknown method


@pytest.fixture()
def requests(net_workload):
    requests = list(net_workload)
    for position in BAD_POSITIONS:
        requests[position] = dataclasses.replace(
            requests[position], lam=None, lambda_method="bogus", lambda_grid=None
        )
    assert requests[FIXED_POSITION].lam is not None
    requests[FIXED_POSITION] = dataclasses.replace(
        requests[FIXED_POSITION], lambda_method="bogus"
    )
    return requests


def _check_neighbours(results, requests, net_factory):
    valid = [i for i in range(len(requests)) if i not in BAD_POSITIONS]
    references = serial_reference(net_factory("reference"), [requests[i] for i in valid])
    answers = [results[i] for i in valid]
    assert max_coefficient_gap(answers, references) <= 1e-10
    assert [r.lam for r in answers] == [r.lam for r in references]


def _check_no_server_fault(counters):
    assert counters.get("breaker_trips", 0) == 0
    assert counters.get("degraded_requests", 0) == 0


def test_select_lambda_uses_the_same_methods(net_factory, net_workload):
    request = net_workload[0]
    with pytest.raises(ValueError, match="unknown lambda selection method 'bogus'"):
        net_factory("reference").fit(request.times, request.measurements, lambda_method="bogus")
    assert LAMBDA_METHODS == ("gcv", "kfold")


@pytest.mark.parametrize("intake", ["submit", "submit_many"])
def test_scheduler_fails_the_request_alone(requests, net_factory, intake):
    with MicroBatchScheduler(SessionPool(net_factory)) as scheduler:
        if intake == "submit":
            futures = [scheduler.submit(request) for request in requests]
        else:
            futures = scheduler.submit_many(requests)
        scheduler.drain(timeout=60.0)
        counters = scheduler.telemetry.snapshot()["counters"]
    for position in BAD_POSITIONS:
        with pytest.raises(ValueError, match="unknown lambda selection method 'bogus'"):
            futures[position].result(timeout=0)
    results = {
        i: future.result(timeout=0) for i, future in enumerate(futures) if i not in BAD_POSITIONS
    }
    _check_neighbours(results, requests, net_factory)
    _check_no_server_fault(counters)
    assert counters["errors"] == len(BAD_POSITIONS)


def test_http_answers_400(live_server, requests, net_factory):
    wires = [WireFit.from_request(request) for request in requests]
    results = {}
    with FitHTTPClient(live_server.host, live_server.port) as client:
        for position, wire in enumerate(wires):
            if position not in BAD_POSITIONS:
                results[position] = client.fit(wire)
                continue
            status, data = client._round_trip(
                "POST", "/v1/fit", Frame("fit", wire.to_payload()).encode()
            )
            reply = decode_frame(data)
            assert status == 400
            assert reply.kind == "error" and reply.payload["code"] == "bad_request"
            assert "unknown lambda selection method" in reply.payload["message"]
        batch = client.fit_batch(wires)
    for position in BAD_POSITIONS:
        assert isinstance(batch[position], ProtocolError)
        assert "unknown lambda selection method" in str(batch[position])
    _check_neighbours(results, requests, net_factory)
    _check_neighbours(dict(enumerate(batch)), requests, net_factory)
    _check_no_server_fault(live_server.server.telemetry.snapshot()["counters"])
