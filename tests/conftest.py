"""Shared fixtures for the test suite.

Monte-Carlo kernels are moderately expensive to build, so a couple of
session-scoped kernels are shared across the tests that only need *a*
realistic kernel rather than a specific one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cellcycle.kernel import KernelBuilder, VolumeKernel
from repro.cellcycle.parameters import CellCycleParameters
from repro.core.basis import SplineBasis
from repro.data.synthetic import ftsz_like_profile, single_pulse_profile
from repro.numerics.qp import QuadraticProgram


@pytest.fixture(scope="session")
def paper_parameters() -> CellCycleParameters:
    """The paper's default Caulobacter cell-cycle parameters."""
    return CellCycleParameters()


@pytest.fixture(scope="session")
def measurement_times() -> np.ndarray:
    """A typical set of measurement times over one average cell cycle."""
    return np.linspace(0.0, 150.0, 13)


@pytest.fixture(scope="session")
def small_kernel(paper_parameters, measurement_times) -> VolumeKernel:
    """A modest-resolution kernel shared by tests that just need one."""
    builder = KernelBuilder(paper_parameters, num_cells=4000, phase_bins=60)
    return builder.build(measurement_times, rng=12345)


@pytest.fixture(scope="session")
def fine_kernel(paper_parameters, measurement_times) -> VolumeKernel:
    """A higher-resolution kernel for accuracy-sensitive tests."""
    builder = KernelBuilder(paper_parameters, num_cells=12000, phase_bins=80)
    return builder.build(measurement_times, rng=99)


@pytest.fixture(scope="session")
def basis12() -> SplineBasis:
    """A twelve-function spline basis."""
    return SplineBasis(num_basis=12)


@pytest.fixture(scope="session")
def ftsz_truth():
    """The ftsZ-like ground-truth profile."""
    return ftsz_like_profile()


@pytest.fixture(scope="session")
def pulse_truth():
    """A single mid-cycle pulse profile."""
    return single_pulse_profile(center=0.5, width=0.12, amplitude=2.0, baseline=0.1)


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(2024)


def _certify(program: QuadraticProgram, x: np.ndarray, active_set, tol: float = 1e-7) -> None:
    """Check the KKT conditions of ``x`` from the QP data alone.

    Primal feasibility of every row; multipliers of the equality rows and of
    the reported active inequality rows by least squares on the stationarity
    condition ``H x + g = A_eq^T y + A_act^T z``; a small stationarity
    residual; ``z >= 0``; and complementarity ``z_i * slack_i = 0``.
    """
    n = program.num_variables
    eq = program.eq_matrix if program.eq_matrix is not None else np.zeros((0, n))
    b_eq = program.eq_vector if program.eq_vector is not None else np.zeros(0)
    ineq = program.ineq_matrix if program.ineq_matrix is not None else np.zeros((0, n))
    b_in = program.ineq_vector if program.ineq_vector is not None else np.zeros(0)
    scale = 1.0 + np.abs(x).max()
    slack = ineq @ x - b_in
    assert np.all(np.abs(eq @ x - b_eq) <= tol * scale), "equality violated"
    assert np.all(slack >= -tol * scale), "inequality violated"

    active = np.asarray(active_set, dtype=int)
    gradient = program.hessian @ x + program.gradient
    rows = np.vstack([eq, ineq[active]])
    multipliers = np.linalg.lstsq(rows.T, gradient, rcond=None)[0]
    residual = gradient - rows.T @ multipliers
    assert np.abs(residual).max() <= tol * (1.0 + np.abs(gradient).max()), "not stationary"
    on_active = multipliers[eq.shape[0]:]
    assert np.all(on_active >= -tol * (1.0 + np.abs(multipliers).max(initial=0.0))), "wrong multiplier sign"
    assert np.all(np.abs(on_active * slack[active]) <= tol * scale), "not complementary"


@pytest.fixture(scope="session")
def certify():
    """KKT certificate of a QP answer, independent of any solve path.

    ``certify(program, x, active_set, tol=1e-7)`` asserts that ``x`` with the
    solver's reported ``active_set`` is an optimum of ``program``; see
    :func:`_certify`.  Session-scoped so hypothesis tests can take it.
    """
    return _certify
