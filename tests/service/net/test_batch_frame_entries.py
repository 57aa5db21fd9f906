"""A malformed entry of a ``POST /v1/fit/batch`` frame fails alone.

The edge decodes each entry of a batch frame on its own.  An entry that does
not decode (a wrong wire type, a missing field, an impossible
``deadline_ms``, not an object at all) gets its own ``bad_request`` item with
status 400, carrying the entry's tag when it has a readable one; the valid
entries of the same frame are submitted and solved, and the frame itself
answers 200.  Only a frame that is not a batch at all is refused whole.
"""

import pytest

from repro.service import max_coefficient_gap, serial_reference
from repro.service.net import FitHTTPClient, Frame, WireFit, WireResult, decode_frame

MALFORMED = {
    1: lambda payload: dict(payload, deadline_ms=-1.0),
    4: lambda payload: dict(payload, include_diagnostics="yes"),
    5: lambda payload: {key: value for key, value in payload.items() if key != "measurements"},
    8: lambda payload: dict(payload, lambda_grid=[-1.0, 1.0], lam=None),
    11: lambda payload: 7,
    12: lambda payload: dict(payload, seed="one", tag=17),
}


def _post(client, entries):
    status, data = client._round_trip(
        "POST", "/v1/fit/batch", Frame("batch_fit", {"requests": entries}).encode()
    )
    return status, decode_frame(data)


def test_bad_entries_fail_alone(live_server, net_workload, net_factory):
    wires = [WireFit.from_request(request) for request in net_workload]
    entries = []
    for position, wire in enumerate(wires):
        payload = wire.to_payload()
        payload["tag"] = f"entry-{position}"
        entries.append(MALFORMED[position](payload) if position in MALFORMED else payload)
    with FitHTTPClient(live_server.host, live_server.port) as client:
        status, reply = _post(client, entries)
    assert status == 200 and reply.kind == "batch_result"
    items = reply.payload["results"]
    assert len(items) == len(entries)
    for position in MALFORMED:
        item = items[position]
        assert item["kind"] == "error"
        assert item["payload"]["code"] == "bad_request"
        assert item["payload"]["http_status"] == 400
        expected_tag = f"entry-{position}" if position not in (11, 12) else ""
        assert item["payload"]["tag"] == expected_tag
    valid = [i for i in range(len(entries)) if i not in MALFORMED]
    assert all(items[i]["kind"] == "result" for i in valid)
    assert [items[i]["payload"]["tag"] for i in valid] == [f"entry-{i}" for i in valid]
    references = serial_reference(net_factory("reference"), [net_workload[i] for i in valid])
    answers = [WireResult.from_payload(items[i]["payload"]) for i in valid]
    assert max_coefficient_gap(answers, references) <= 1e-10
    assert [a.lam for a in answers] == [r.lam for r in references]
    counters = live_server.server.telemetry.snapshot()["counters"]
    assert counters.get("breaker_trips", 0) == 0


@pytest.mark.parametrize(
    "frame",
    [Frame("fit", {}), Frame("batch_fit", {"requests": {"not": "a list"}})],
    ids=["wrong_kind", "requests_not_a_list"],
)
def test_a_frame_that_is_not_a_batch_is_refused_whole(live_server, frame):
    with FitHTTPClient(live_server.host, live_server.port) as client:
        status, data = client._round_trip("POST", "/v1/fit/batch", frame.encode())
    reply = decode_frame(data)
    assert status == 400 and reply.kind == "error"
    assert reply.payload["code"] == "bad_request"
