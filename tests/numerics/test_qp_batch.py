"""Edge-case tests for the stacked multi-RHS QP engine.

Covers :meth:`repro.numerics.qp.QPWorkspace.solve_batch` (shared
factorization, batched KKT verification, adaptive active-set fallback) and
:func:`repro.numerics.qp.kkt_solve_diagonal_batch` against the serial
active-set solver.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.numerics.qp import (
    QPWorkspace,
    QuadraticProgram,
    kkt_solve_diagonal_batch,
)


def make_workspace(rng, n=10, num_eq=2, positivity=True):
    factor = rng.normal(size=(n + 4, n))
    hessian = factor.T @ factor + 0.5 * np.eye(n)
    eq = rng.normal(size=(num_eq, n)) if num_eq else None
    program = QuadraticProgram(
        hessian=hessian,
        gradient=np.zeros(n),
        eq_matrix=eq,
        eq_vector=np.zeros(num_eq) if num_eq else None,
        ineq_matrix=np.eye(n) if positivity else None,
        ineq_vector=np.zeros(n) if positivity else None,
    )
    return QPWorkspace(program)


@pytest.fixture()
def workspace(rng):
    return make_workspace(rng)


class TestSolveBatch:
    def test_matches_serial_solves(self, workspace, rng):
        gradients = rng.normal(size=(25, workspace.num_variables))
        batch = workspace.solve_batch(gradients)
        assert batch.num_problems == 25
        for index in range(25):
            serial = workspace.solve(gradients[index])
            assert serial.converged and batch.converged[index]
            np.testing.assert_allclose(batch.x[index], serial.x, atol=1e-10)
            assert batch.result(index).active_set == serial.active_set

    def test_unconstrained_rows_avoid_fallback(self, rng):
        """Rows whose equality-only optimum is feasible never hit the loop."""
        ws = make_workspace(rng, positivity=False)
        gradients = rng.normal(size=(12, ws.num_variables))
        batch = ws.solve_batch(gradients)
        assert batch.num_fallback == 0
        assert np.all(batch.iterations == 0)
        for index in range(12):
            np.testing.assert_allclose(
                batch.x[index], ws.solve(gradients[index]).x, atol=1e-10
            )

    def test_all_rows_active_fallback(self, workspace, rng):
        """Every row violating positivity still converges via the fallback."""
        # Strongly positive gradients push the unconstrained optimum negative,
        # so the equality-only candidate fails verification on every row.
        gradients = np.abs(rng.normal(size=(8, workspace.num_variables))) + 1.0
        batch = workspace.solve_batch(gradients)
        assert np.all(batch.converged)
        # At least the first row fell back (the rest may verify against the
        # first row's discovered set — the adaptive re-batching).
        assert batch.num_fallback >= 1
        for index in range(8):
            serial = workspace.solve(gradients[index])
            np.testing.assert_allclose(batch.x[index], serial.x, atol=1e-10)
            assert len(batch.active_sets[index]) > 0

    def test_shared_active_set_short_circuits(self, workspace, rng):
        gradient = np.abs(rng.normal(size=workspace.num_variables)) + 1.0
        base = workspace.solve(gradient)
        perturbed = gradient[None, :] + 1e-4 * rng.normal(
            size=(20, workspace.num_variables)
        )
        batch = workspace.solve_batch(perturbed, shared_active_set=base.active_set)
        # Nearby gradients keep the base active set: verification accepts
        # (nearly) every row without entering the active-set loop.
        assert batch.num_fallback <= 2
        for index in range(20):
            np.testing.assert_allclose(
                batch.x[index], workspace.solve(perturbed[index]).x, atol=1e-10
            )

    def test_bogus_shared_set_is_harmless(self, workspace, rng):
        gradients = rng.normal(size=(5, workspace.num_variables))
        reference = workspace.solve_batch(gradients)
        batch = workspace.solve_batch(
            gradients, shared_active_set=[-3, 99, 0, 0, 1]
        )
        np.testing.assert_allclose(batch.x, reference.x, atol=1e-10)
        assert np.all(batch.converged)

    def test_empty_batch(self, workspace):
        batch = workspace.solve_batch(np.zeros((0, workspace.num_variables)))
        assert batch.num_problems == 0
        assert batch.num_fallback == 0
        assert batch.active_sets == []

    def test_single_row_batch(self, workspace, rng):
        gradient = rng.normal(size=workspace.num_variables)
        batch = workspace.solve_batch(gradient[None, :])
        serial = workspace.solve(gradient)
        np.testing.assert_allclose(batch.x[0], serial.x, atol=1e-10)
        assert batch.result(0).converged

    def test_objectives_match_problem_objective(self, workspace, rng):
        gradients = rng.normal(size=(6, workspace.num_variables))
        batch = workspace.solve_batch(gradients)
        for index in range(6):
            expected = 0.5 * batch.x[index] @ workspace.hessian @ batch.x[index]
            expected += gradients[index] @ batch.x[index]
            assert batch.objectives[index] == pytest.approx(expected, rel=1e-12)

    def test_bad_shapes_rejected(self, workspace):
        with pytest.raises(ValueError):
            workspace.solve_batch(np.zeros(workspace.num_variables))
        with pytest.raises(ValueError):
            workspace.solve_batch(np.zeros((3, workspace.num_variables + 1)))

    def test_workspace_still_solves_serially_after_batch(self, workspace, rng):
        """The batch pass does not corrupt the workspace's incremental QR."""
        gradients = rng.normal(size=(4, workspace.num_variables))
        workspace.solve_batch(gradients)
        serial = workspace.solve(gradients[0])
        assert serial.converged
        fresh = make_workspace(np.random.default_rng(0))
        # Not comparable numerically (different rng), just exercising state.
        assert fresh.solve_batch(gradients[:1]).num_problems == 1


class TestDiagonalKKTBatch:
    def test_matches_equality_pinned_workspace_solves(self, rng):
        n, num_problems = 9, 7
        diagonals = rng.uniform(0.5, 4.0, size=(num_problems, n))
        gradient = rng.normal(size=n)
        columns = rng.normal(size=(3, n))
        rhs = np.zeros(3)
        solutions, multipliers = kkt_solve_diagonal_batch(
            diagonals, gradient, columns, rhs, 1
        )
        assert multipliers.shape == (num_problems, 2)
        for row in range(num_problems):
            reference = QPWorkspace(
                QuadraticProgram(
                    hessian=np.diag(diagonals[row]),
                    gradient=gradient,
                    eq_matrix=columns,
                    eq_vector=rhs,
                )
            ).solve(gradient)
            np.testing.assert_allclose(solutions[row], reference.x, atol=1e-10)

    def test_no_constraints_is_elementwise(self, rng):
        diagonals = rng.uniform(1.0, 2.0, size=(4, 6))
        gradient = rng.normal(size=6)
        solutions, multipliers = kkt_solve_diagonal_batch(
            diagonals, gradient, np.zeros((0, 6)), np.zeros(0), 0
        )
        np.testing.assert_allclose(solutions, -gradient[None, :] / diagonals)
        assert multipliers.shape == (4, 0)

    def test_singular_working_set_raises(self, rng):
        diagonals = rng.uniform(1.0, 2.0, size=(2, 5))
        row = rng.normal(size=5)
        columns = np.vstack([row, row])  # dependent rows -> singular Schur
        with pytest.raises(np.linalg.LinAlgError):
            kkt_solve_diagonal_batch(
                diagonals, rng.normal(size=5), columns, np.zeros(2), 0
            )

