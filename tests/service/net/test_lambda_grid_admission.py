"""A bad ``lambda_grid`` fails alone, with the same error on every path.

The grid of a selection request must be 1-D, non-empty, finite and ``>= 0``,
the rule a fixed ``lam`` obeys.  Serial ``fit`` raises ``ValueError`` before
any solve, the scheduler fails the request at admission with ``ValueError``
(``submit`` and ``submit_many``), and the network edge answers 400 without
submitting it (a per-entry 400 item inside a batch frame).  Valid
neighbours, selection requests with a good grid among them, still match the
serial reference, and no client fault reaches the breaker.
"""

import dataclasses

import numpy as np
import pytest

from repro.service import (
    MicroBatchScheduler,
    SessionPool,
    max_coefficient_gap,
    serial_reference,
)
from repro.service.net import FitHTTPClient, Frame, ProtocolError, WireFit, decode_frame

BAD_GRIDS = {
    "negative": [-1.0, 1.0],
    "nan": [float("nan"), 1.0],
    "empty": [],
    "two_d": [[1.0, 2.0]],
}
BAD_POSITIONS = (2, 9)
GOOD_GRID_POSITION = 5

pytestmark = [
    pytest.mark.parametrize("method", ["gcv", "kfold"]),
    pytest.mark.parametrize("grid", list(BAD_GRIDS.values()), ids=list(BAD_GRIDS)),
]


@pytest.fixture()
def requests(net_workload, method, grid):
    """The workload with two bad-grid requests and one good-grid neighbour."""
    requests = list(net_workload)
    for position in BAD_POSITIONS:
        requests[position] = dataclasses.replace(
            requests[position], lam=None, lambda_method=method, lambda_grid=grid
        )
    requests[GOOD_GRID_POSITION] = dataclasses.replace(
        requests[GOOD_GRID_POSITION],
        lam=None,
        lambda_method=method,
        lambda_grid=np.array([1e-3, 1e-1, 1.0]),
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


def test_serial_fit_rejects_the_grid(requests, net_factory):
    deconvolver = net_factory("reference")
    for position in BAD_POSITIONS:
        request = requests[position]
        with pytest.raises(ValueError, match="lambda_grid"):
            deconvolver.fit(
                request.times,
                request.measurements,
                lambda_method=request.lambda_method,
                lambda_grid=request.lambda_grid,
            )


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
        with pytest.raises(ValueError, match="lambda_grid"):
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
            assert "lambda_grid" in reply.payload["message"]
        # In a batch frame each bad entry gets its own 400 item; the valid
        # entries of the same frame are solved.
        batch = client.fit_batch(wires)
    for position in BAD_POSITIONS:
        assert isinstance(batch[position], ProtocolError)
        assert "lambda_grid" in str(batch[position])
    _check_neighbours(results, requests, net_factory)
    _check_neighbours(dict(enumerate(batch)), requests, net_factory)
    _check_no_server_fault(live_server.server.telemetry.snapshot()["counters"])
