"""A time grid past the population cap fails alone and trips nothing.

An unregistered grid is simulated on demand inside the shard runner, and
:meth:`~repro.cellcycle.population.PopulationSimulator.run` refuses a
horizon whose population would exceed
:data:`~repro.cellcycle.population.MAX_SIMULATED_CELLS` with
:class:`~repro.service.InvalidRequest`.  That is the client's fault: it
must not count against the shard's circuit breaker, so valid neighbours
keep the fast path and match the serial reference.  Over the wire it is a
400, per entry inside a batch frame.
"""

import concurrent.futures

import numpy as np
import pytest

from repro.service import (
    FitRequest,
    InvalidRequest,
    MicroBatchScheduler,
    SessionPool,
    max_coefficient_gap,
    serial_reference,
)
from repro.service.net import FitHTTPClient, ProtocolError, WireFit
from repro.utils import validation

LONG_POSITIONS = (1, 4, 7, 10, 13, 16)
LONG_TIMES = np.linspace(0.0, 3000.0, 8)


@pytest.fixture()
def requests(net_workload):
    requests = list(net_workload)
    gen = np.random.default_rng(3)
    for position in LONG_POSITIONS:
        # Distinct measurements: each long-grid request is its own solve row.
        requests[position] = FitRequest(
            times=LONG_TIMES, measurements=gen.uniform(1.0, 2.0, LONG_TIMES.size), lam=1e-3
        )
    return requests


def _check_neighbours(results, requests, net_factory):
    valid = [i for i in range(len(requests)) if i not in LONG_POSITIONS]
    references = serial_reference(net_factory("reference"), [requests[i] for i in valid])
    answers = [results[i] for i in valid]
    assert max_coefficient_gap(answers, references) <= 1e-10
    assert [r.lam for r in answers] == [r.lam for r in references]


def _check_no_server_fault(counters):
    assert counters.get("breaker_trips", 0) == 0
    assert counters.get("degraded_requests", 0) == 0


@pytest.mark.parametrize("intake", ["one_at_a_time", "submit_many"])
def test_scheduler_fails_the_request_alone(requests, net_factory, intake):
    with MicroBatchScheduler(SessionPool(net_factory)) as scheduler:
        if intake == "one_at_a_time":
            # The long-grid requests go first, each its own batch: counted
            # as solve failures, the six in a row would open the breaker
            # (threshold 5) and send the valid requests after them down the
            # degraded path.
            order = list(LONG_POSITIONS) + [
                i for i in range(len(requests)) if i not in LONG_POSITIONS
            ]
            futures = [None] * len(requests)
            for position in order:
                futures[position] = scheduler.submit(requests[position])
                concurrent.futures.wait([futures[position]], timeout=60.0)
        else:
            futures = scheduler.submit_many(requests)
        scheduler.drain(timeout=60.0)
        counters = scheduler.telemetry.snapshot()["counters"]
    for position in LONG_POSITIONS:
        with pytest.raises(InvalidRequest, match="cells"):
            futures[position].result(timeout=0)
    results = {
        i: future.result(timeout=0) for i, future in enumerate(futures) if i not in LONG_POSITIONS
    }
    _check_neighbours(results, requests, net_factory)
    _check_no_server_fault(counters)


def test_batch_frame_answers_400_per_entry(live_server, requests, net_factory):
    wires = [WireFit.from_request(request) for request in requests]
    with FitHTTPClient(live_server.host, live_server.port) as client:
        batch = client.fit_batch(wires)
        with pytest.raises(ProtocolError, match="cells"):
            client.fit(wires[LONG_POSITIONS[0]])
    for position in LONG_POSITIONS:
        assert isinstance(batch[position], ProtocolError)
        assert "cells" in str(batch[position])
    _check_neighbours(dict(enumerate(batch)), requests, net_factory)
    _check_no_server_fault(live_server.server.telemetry.snapshot()["counters"])


def test_invalid_request_is_the_validation_value_error():
    assert InvalidRequest is validation.InvalidRequest
    assert issubclass(InvalidRequest, ValueError)
