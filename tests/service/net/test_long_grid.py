"""A GCV request with a very long ``lambda_grid`` is served, not refused.

The wire caps a message's size, not its grid's length, so one frame can
carry many thousands of candidates.  GCV scores them in blocks of a fixed
number of candidates (see ``_gcv_score_table``), so such a grid costs
scoring time but no memory beyond one block's temporaries, and the answer
still matches serial ``fit``: the same lambda, coefficients within 1e-10.
"""

import dataclasses

import numpy as np

from repro.service import max_coefficient_gap, serial_reference
from repro.service.net import FitHTTPClient, WireFit

LONG_GRID = np.logspace(-8.0, 3.0, 20_000)
SELECTING = (0, 4, 8, 12)


def test_long_grid_matches_serial_fit(live_server, net_workload, net_factory):
    requests = list(net_workload)
    for position in SELECTING:
        requests[position] = dataclasses.replace(
            requests[position], lam=None, lambda_method="gcv", lambda_grid=LONG_GRID
        )
    wires = [WireFit.from_request(request) for request in requests]
    with FitHTTPClient(live_server.host, live_server.port) as client:
        alone = client.fit(wires[SELECTING[0]])
        batch = client.fit_batch(wires)
    references = serial_reference(net_factory("reference"), requests)
    assert max_coefficient_gap(batch, references) <= 1e-10
    assert [result.lam for result in batch] == [reference.lam for reference in references]
    assert alone.lam == references[SELECTING[0]].lam
    assert max_coefficient_gap([alone], [references[SELECTING[0]]]) <= 1e-10
