"""Regression test: cold QP solves at paper scale start inside the cone.

One benchmark-shaped grid (16 samples over 150 min), a 12-function basis and
seeded pulse profiles with additive noise, fitted at ``lambda = 1e-6`` -- the
value GCV picks for most selection requests on such data.  Every positivity
row is tight at the origin, so a cold solve that started there used to pin
rows one zero-length step at a time; the interior-point restart of
:class:`~repro.numerics.qp.QPWorkspace` removes those steps.

Measured on this fixture (origin start -> interior start): fixed-lambda cold
solves 228 -> 36 iterations over 12 fits, GCV fits 175 -> 34, and a
20-replicate bootstrap of each fit 51,979 -> 12,744 iterations with 6 -> 2
solves re-done by SLSQP after hitting the iteration cap.  The bounds sit
between the two.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cellcycle.kernel import KernelBuilder
from repro.cellcycle.parameters import CellCycleParameters
from repro.core.deconvolver import Deconvolver
from repro.core.uncertainty import bootstrap_deconvolution
from repro.data.synthetic import single_pulse_profile
from repro.numerics import qp

NUM_FITS = 12
LAM = 1e-6


@pytest.fixture(scope="module")
def setting():
    parameters = CellCycleParameters()
    kernel = KernelBuilder(parameters, num_cells=2000, phase_bins=60).build(
        np.linspace(0.0, 150.0, 16), rng=0
    )
    deconvolver = Deconvolver(kernel, parameters=parameters, num_basis=12)
    rng = np.random.default_rng(7)
    data = []
    for _ in range(NUM_FITS):
        truth = single_pulse_profile(
            center=0.15 + 0.7 * rng.random(),
            width=0.10 + 0.08 * rng.random(),
            amplitude=1.0 + rng.random(),
            baseline=0.2,
        )
        clean = kernel.apply_function(truth)
        data.append(clean + 0.02 * rng.normal(size=clean.size))
    return kernel, deconvolver, data


@pytest.fixture()
def counters(monkeypatch):
    """Count workspace solves, their iterations and SLSQP re-solves."""
    counts = {"solves": 0, "iterations": 0, "slsqp": 0}
    solve = qp.QPWorkspace.solve
    scipy_solve = qp._solve_qp_scipy

    def counted_solve(self, *args, **kwargs):
        result = solve(self, *args, **kwargs)
        counts["solves"] += 1
        counts["iterations"] += result.iterations
        return result

    def counted_scipy(*args, **kwargs):
        counts["slsqp"] += 1
        return scipy_solve(*args, **kwargs)

    monkeypatch.setattr(qp.QPWorkspace, "solve", counted_solve)
    monkeypatch.setattr(qp, "_solve_qp_scipy", counted_scipy)
    return counts


def test_fixed_lambda_cold_solves(setting, counters):
    kernel, deconvolver, data = setting
    for values in data:
        deconvolver.fit(kernel.times, values, lam=LAM)
    assert counters["solves"] == NUM_FITS
    assert counters["iterations"] <= 90


def test_gcv_fits(setting, counters):
    kernel, deconvolver, data = setting
    for values in data:
        deconvolver.fit(kernel.times, values, lambda_method="gcv")
    assert counters["solves"] == NUM_FITS
    assert counters["iterations"] <= 80


def test_bootstrap_needs_fewer_slsqp_resolves(setting, counters):
    kernel, deconvolver, data = setting
    for seed, values in enumerate(data):
        bootstrap_deconvolution(
            deconvolver, kernel.times, values, lam=LAM, num_replicates=20, rng=seed
        )
    assert counters["iterations"] <= 25_000
    assert counters["slsqp"] <= 4
