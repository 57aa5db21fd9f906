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
from repro.core.problem import DeconvolutionProblem
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
    """Count workspace solves, their iterations, the capped ones and SLSQP re-solves."""
    counts = {"solves": 0, "iterations": 0, "capped": 0, "slsqp": 0}
    solve = qp.QPWorkspace.solve
    scipy_solve = qp._solve_qp_scipy

    def counted_solve(self, *args, **kwargs):
        result = solve(self, *args, **kwargs)
        counts["solves"] += 1
        counts["iterations"] += result.iterations
        counts["capped"] += not result.converged
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


def test_bootstrap_resolves_a_capped_row_once(setting, counters, monkeypatch):
    """A batch row that hit the iteration cap goes straight to SLSQP.

    Its cold active-set solve is not repeated before the re-solve: one capped
    workspace solve per SLSQP call.  Each fallback row of the band is either
    the batch's own converged row or the SLSQP optimum of its program.
    """
    kernel, deconvolver, data = setting
    batches = []
    solve_batch = DeconvolutionProblem.solve_batch

    def recorded(self, lam, matrix, **kwargs):
        batch = solve_batch(self, lam, matrix, **kwargs)
        batches.append((self, lam, np.array(matrix), kwargs, batch.x.copy()))
        return batch

    monkeypatch.setattr(DeconvolutionProblem, "solve_batch", recorded)
    for seed, values in enumerate(data):
        bootstrap_deconvolution(
            deconvolver, kernel.times, values, lam=LAM, num_replicates=20, rng=seed
        )
    assert counters["slsqp"] >= 1
    assert counters["capped"] == counters["slsqp"]

    repaired = 0
    for problem, lam, matrix, kwargs, x in batches:
        kwargs = dict(kwargs, backend="active_set")
        rows = solve_batch(problem, lam, matrix, **kwargs)  # the rows before any repair
        program = problem.quadratic_program(lam)
        for index in np.flatnonzero(rows.fallback):
            if rows.converged[index] and program.is_feasible(rows.x[index], tol=1e-6):
                expected = rows.x[index]
            else:
                repaired += 1
                sibling = problem.with_measurements(matrix[:, index]).quadratic_program(lam)
                expected = qp.solve_qp(sibling, backend="scipy").x
            np.testing.assert_allclose(x[index], expected, rtol=0.0, atol=1e-10)
    assert repaired >= 1
