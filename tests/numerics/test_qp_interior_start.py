"""Property tests for the interior-point cold start of the active-set QP.

The deconvolution constraints (positivity on a fine phase grid, RNA
conservation, rate continuity) are homogeneous, so every positivity row is
tight at the origin.  A cold :meth:`QPWorkspace.solve` whose first step is
blocked there restarts from :attr:`QPWorkspace.interior_point`.  An explicit
``x0`` keeps the origin path, which makes ``solve(g, x0=zeros)`` the
reference: the strictly convex QP has one optimum, so both starts must land
on it, to the solver's own 1e-9 tolerance.  (The two paths can stop on
different working sets that tie within that tolerance, such as neighbouring
grid rows; on 99% of random cones they agree to 5e-13.)  The interior start needs far fewer iterations in aggregate, but not
on every problem: on about 1% of random cones its path is longer (for
example 7 iterations against 4 with 4 variables and 8 positivity rows), so
the iteration claim is checked over a seeded family, not per problem.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import repro
from repro.numerics.qp import QPWorkspace, QuadraticProgram


def cone_program(rng, n: int, grid_size: int, num_eq: int) -> QuadraticProgram:
    """Random strictly convex QP over a homogeneous spline-like cone.

    Positivity rows are non-negative hat-function values on a fine grid (the
    shape of B-spline evaluations), plus ``num_eq`` homogeneous equality rows
    of mixed sign, like the paper's conservation and continuity rows.
    """
    centres = np.linspace(0.0, 1.0, n)
    width = 1.5 / (n - 1)
    grid = np.linspace(0.0, 1.0, grid_size)
    ineq = np.maximum(0.0, 1.0 - np.abs(grid[:, None] - centres[None, :]) / width)
    root = rng.normal(size=(n + 3, n))
    hessian = root.T @ root + 1e-3 * np.eye(n)
    eq = rng.normal(size=(num_eq, n)) if num_eq else None
    return QuadraticProgram(
        hessian=hessian,
        gradient=3.0 * rng.normal(size=n),
        eq_matrix=eq,
        eq_vector=np.zeros(num_eq) if num_eq else None,
        ineq_matrix=ineq,
        ineq_vector=np.zeros(grid_size),
    )


@st.composite
def cone_programs(draw):
    """:func:`cone_program` with 4-12 variables on a 2x to 17x finer grid."""
    n = draw(st.integers(4, 12))
    grid_size = draw(st.integers(2 * n, 17 * n))
    num_eq = draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return cone_program(rng, n, grid_size, num_eq)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(program=cone_programs())
def test_interior_start_matches_origin_start(program, certify):
    workspace = QPWorkspace(program)
    reference = workspace.solve(x0=np.zeros(program.num_variables))
    result = workspace.solve()
    # Both paths may still zigzag along neighbouring grid rows up to the
    # iteration cap; the claim is about the optimum they reach.
    assume(reference.converged and result.converged)
    scale = max(1.0, float(np.abs(reference.x).max()))
    np.testing.assert_allclose(result.x, reference.x, rtol=0.0, atol=1e-9 * scale)
    certify(program, result.x, result.active_set)


@pytest.mark.parametrize("density", [2, 8, 17])
def test_interior_start_cuts_iterations_over_a_family(density):
    """Over a seeded family of cones, cold solves take at most half the
    origin path's iterations (measured: about a quarter to a half)."""
    rng = np.random.default_rng(density)
    interior = origin = 0
    for _ in range(60):
        n = int(rng.integers(4, 13))
        program = cone_program(rng, n, density * n, int(rng.integers(0, 3)))
        workspace = QPWorkspace(program)
        reference = workspace.solve(x0=np.zeros(n))
        result = workspace.solve()
        if reference.converged and result.converged:
            origin += reference.iterations
            interior += result.iterations
    assert interior <= 0.5 * origin


@settings(max_examples=60, deadline=None)
@given(program=cone_programs())
def test_interior_point_is_strictly_feasible(program):
    point = QPWorkspace(program).interior_point
    if point is None:
        return
    assert not point.flags.writeable
    assert np.all(program.ineq_matrix @ point > 0.0)
    if program.eq_matrix is not None:
        assert np.abs(program.eq_matrix @ point).max() <= 1e-12 * np.abs(point).sum() * (
            1.0 + np.abs(program.eq_matrix).max()
        )


def test_cone_without_interior_keeps_origin_path():
    """``a x >= 0`` and ``-a x >= 0`` leave no strict interior: the cold
    start is then the origin start, bit for bit."""
    rng = np.random.default_rng(5)
    n = 6
    row = rng.normal(size=n)
    root = rng.normal(size=(n, n))
    program = QuadraticProgram(
        hessian=root @ root.T + np.eye(n),
        gradient=rng.normal(size=n),
        ineq_matrix=np.vstack([row, -row]),
        ineq_vector=np.zeros(2),
    )
    workspace = QPWorkspace(program)
    assert workspace.interior_point is None
    for _ in range(5):
        gradient = 3.0 * rng.normal(size=n)
        cold = workspace.solve(gradient)
        origin = workspace.solve(gradient, x0=np.zeros(n))
        assert cold.converged
        assert np.array_equal(cold.x, origin.x)
        assert cold.iterations == origin.iterations
        assert cold.active_set == origin.active_set


def test_unblocked_first_step_keeps_origin_bits():
    """A cold solve whose unconstrained optimum is feasible never restarts:
    two iterations and the origin path's exact bits."""
    n = 5
    program = QuadraticProgram(
        hessian=np.diag(np.arange(1.0, n + 1.0)),
        gradient=-np.ones(n),
        ineq_matrix=np.eye(n),
        ineq_vector=np.zeros(n),
    )
    workspace = QPWorkspace(program)
    assert workspace.interior_point is not None
    cold = workspace.solve()
    origin = workspace.solve(x0=np.zeros(n))
    assert cold.iterations == origin.iterations == 2
    assert np.array_equal(cold.x, origin.x)


def test_workspace_build_does_not_import_scipy_optimize():
    """The interior point is numpy only: building a workspace (and a cold
    solve) must not pull in ``scipy.optimize``, whose import alone costs
    memory and set-up time."""
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from repro.numerics.qp import QPWorkspace, QuadraticProgram\n"
        "n = 6\n"
        "program = QuadraticProgram(hessian=np.eye(n), gradient=np.ones(n),\n"
        "    eq_matrix=np.ones((1, n)) - 2 * np.eye(1, n), eq_vector=np.zeros(1),\n"
        "    ineq_matrix=np.eye(n), ineq_vector=np.zeros(n))\n"
        "workspace = QPWorkspace(program)\n"
        "assert workspace.interior_point is not None\n"
        "assert workspace.solve().converged\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    env = dict(os.environ)
    source = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"
