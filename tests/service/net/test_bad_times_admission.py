"""Bad ``times`` fail alone at admission and trip nothing.

The kernel build needs a non-empty grid of finite, non-negative minutes.
A request with any other grid must fail with
:class:`~repro.service.InvalidRequest` before it is queued: left to the
kernel build, its plain ``ValueError`` counted as a solve failure, and a
run of them opened the shard's breaker and sent valid requests down the
degraded path.  Over the wire it is a 400, per entry inside a batch frame.
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

#: Eight requests with a negative time and three with a NaN time: counted
#: as solve failures, more than enough to open the breaker (threshold 5).
NEGATIVE_POSITIONS = (0, 2, 4, 6, 8, 10, 12, 14)
NAN_POSITIONS = (1, 3, 5)
BAD_POSITIONS = NEGATIVE_POSITIONS + NAN_POSITIONS


def _bad_times(position: int) -> np.ndarray:
    times = np.linspace(-30.0, 120.0, 9)
    if position in NAN_POSITIONS:
        times = np.linspace(0.0, 120.0, 9)
        times[4] = np.nan
    return times


@pytest.fixture()
def requests(net_workload):
    requests = list(net_workload)
    gen = np.random.default_rng(11)
    for position in BAD_POSITIONS:
        times = _bad_times(position)
        requests[position] = FitRequest(
            times=times, measurements=gen.uniform(1.0, 2.0, times.size), lam=1e-3
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


@pytest.mark.parametrize("intake", ["one_at_a_time", "submit_many"])
def test_scheduler_fails_the_request_alone(requests, net_factory, intake):
    with MicroBatchScheduler(SessionPool(net_factory), max_batch=32) as scheduler:
        if intake == "one_at_a_time":
            # The bad requests go first, each its own batch, so a solve-time
            # failure of each would reach the breaker before the valid ones.
            order = list(BAD_POSITIONS) + [
                i for i in range(len(requests)) if i not in BAD_POSITIONS
            ]
            futures = [None] * len(requests)
            for position in order:
                futures[position] = scheduler.submit(requests[position])
                concurrent.futures.wait([futures[position]], timeout=60.0)
        else:
            futures = scheduler.submit_many(requests)
        scheduler.drain(timeout=60.0)
        counters = scheduler.telemetry.snapshot()["counters"]
    for position in BAD_POSITIONS:
        with pytest.raises(InvalidRequest, match="times must be finite and >= 0"):
            futures[position].result(timeout=0)
    results = {
        i: future.result(timeout=0) for i, future in enumerate(futures) if i not in BAD_POSITIONS
    }
    _check_neighbours(results, requests, net_factory)
    _check_no_server_fault(counters)


def test_empty_times_fail_at_admission(net_factory):
    with MicroBatchScheduler(SessionPool(net_factory), max_batch=32) as scheduler:
        future = scheduler.submit(FitRequest(times=[], measurements=[], lam=1e-3))
        with pytest.raises(InvalidRequest, match="times must not be empty"):
            future.result(timeout=60.0)
        counters = scheduler.telemetry.snapshot()["counters"]
    _check_no_server_fault(counters)


def test_batch_frame_answers_400_per_entry(live_server, requests, net_factory):
    wires = [WireFit.from_request(request) for request in requests]
    with FitHTTPClient(live_server.host, live_server.port) as client:
        batch = client.fit_batch(wires)
    for position in BAD_POSITIONS:
        assert isinstance(batch[position], ProtocolError)
        assert "times must be finite and >= 0" in str(batch[position])
    _check_neighbours(dict(enumerate(batch)), requests, net_factory)
    _check_no_server_fault(live_server.server.telemetry.snapshot()["counters"])
