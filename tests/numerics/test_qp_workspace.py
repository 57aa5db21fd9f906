"""Equivalence tests for the null-space QP workspace and warm-start path.

The warm-started, shared-factorization solver must agree with both the cold
active-set solve and SciPy's SLSQP on randomized convex QPs with equality and
inequality constraints (objectives within 1e-8).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numerics.qp import (
    QPWorkspace,
    QuadraticProgram,
    solve_qp,
    solve_qp_active_set,
)


def _random_problem(rng, n, *, num_eq=0, num_ineq=None):
    """Random strictly convex QP with ``x = ones`` strictly feasible."""
    root = rng.normal(size=(n, n))
    hessian = root @ root.T + n * np.eye(n)
    gradient = 3.0 * rng.normal(size=n)
    feasible = np.ones(n)
    eq = rng.normal(size=(num_eq, n)) if num_eq else None
    eq_vector = eq @ feasible if num_eq else None
    num_ineq = 2 * n if num_ineq is None else num_ineq
    ineq = rng.normal(size=(num_ineq, n))
    ineq_vector = ineq @ feasible - rng.uniform(0.1, 2.0, size=num_ineq)
    return (
        QuadraticProgram(
            hessian=hessian,
            gradient=gradient,
            eq_matrix=eq,
            eq_vector=eq_vector,
            ineq_matrix=ineq,
            ineq_vector=ineq_vector,
        ),
        feasible,
    )


class TestHessianSymmetrization:
    def test_tolerable_asymmetry_is_repaired(self):
        hessian = np.eye(3)
        hessian[0, 1] = 1e-10
        program = QuadraticProgram(hessian=hessian, gradient=np.zeros(3))
        assert np.array_equal(program.hessian, program.hessian.T)
        assert program.hessian[0, 1] == pytest.approx(5e-11)

    def test_gross_asymmetry_still_rejected(self):
        hessian = np.eye(3)
        hessian[0, 1] = 1e-3
        with pytest.raises(ValueError):
            QuadraticProgram(hessian=hessian, gradient=np.zeros(3))

    def test_exactly_symmetric_hessian_kept_by_reference(self):
        hessian = np.eye(4)
        program = QuadraticProgram(hessian=hessian, gradient=np.zeros(4))
        assert program.hessian is hessian


class TestWarmStartEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_warm_matches_cold_and_scipy(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 10))
        problem, feasible = _random_problem(rng, n, num_eq=int(rng.integers(0, 2)))
        cold = solve_qp_active_set(problem, x0=feasible)
        reference = solve_qp(problem, feasible, backend="scipy")
        assert cold.converged
        warm = solve_qp_active_set(
            problem, x0=cold.x, active_set=cold.active_set
        )
        assert warm.converged
        assert problem.is_feasible(warm.x, tol=1e-7)
        assert warm.objective == pytest.approx(cold.objective, abs=1e-8)
        assert cold.objective == pytest.approx(reference.objective, rel=1e-6, abs=1e-8)

    def test_workspace_reused_across_gradients(self):
        rng = np.random.default_rng(11)
        problem, feasible = _random_problem(rng, 7, num_eq=1)
        workspace = QPWorkspace(problem)
        base = workspace.solve(x0=feasible)
        assert base.converged
        for _ in range(5):
            gradient = problem.gradient + 0.2 * rng.normal(size=7)
            warm = workspace.solve(gradient, x0=base.x, active_set=base.active_set)
            perturbed = QuadraticProgram(
                hessian=problem.hessian,
                gradient=gradient,
                eq_matrix=problem.eq_matrix,
                eq_vector=problem.eq_vector,
                ineq_matrix=problem.ineq_matrix,
                ineq_vector=problem.ineq_vector,
            )
            cold = solve_qp_active_set(perturbed, x0=feasible)
            assert warm.converged and cold.converged
            assert warm.objective == pytest.approx(cold.objective, abs=1e-8)

    def test_stale_active_set_is_filtered(self):
        """Warm-start indices that are inactive (or invalid) at x0 are dropped."""
        problem = QuadraticProgram(
            hessian=np.eye(3),
            gradient=np.array([-1.0, -2.0, -3.0]),
            ineq_matrix=np.eye(3),
            ineq_vector=np.zeros(3),
        )
        result = solve_qp_active_set(
            problem, x0=np.ones(3), active_set=[0, 1, 2, 99, -1]
        )
        assert result.converged
        assert np.allclose(result.x, [1.0, 2.0, 3.0], atol=1e-8)
        assert result.active_set == []

    def test_warm_start_from_other_lambda_like_hessian(self):
        """Warm starts remain correct when the Hessian changes between solves."""
        rng = np.random.default_rng(21)
        problem_a, feasible = _random_problem(rng, 6)
        hessian_b = problem_a.hessian + 0.5 * np.eye(6)
        problem_b = QuadraticProgram(
            hessian=hessian_b,
            gradient=problem_a.gradient,
            ineq_matrix=problem_a.ineq_matrix,
            ineq_vector=problem_a.ineq_vector,
        )
        first = solve_qp_active_set(problem_a, x0=feasible)
        warm = solve_qp_active_set(problem_b, x0=first.x, active_set=first.active_set)
        cold = solve_qp_active_set(problem_b, x0=feasible)
        assert warm.converged and cold.converged
        assert warm.objective == pytest.approx(cold.objective, abs=1e-8)

    def test_infeasible_warm_start_degrades_to_cold(self):
        """Best-effort warm starts: an infeasible (x0, active_set) pair from
        a fallback backend must not abort the sweep — the solve restarts
        cold from zero and still reaches the optimum."""
        problem = QuadraticProgram(
            hessian=np.eye(2),
            gradient=np.array([-1.0, -2.0]),
            ineq_matrix=np.eye(2),
            ineq_vector=np.zeros(2),
        )
        result = solve_qp_active_set(
            problem, x0=np.array([-1.0, 0.0]), active_set=[0]
        )
        assert result.converged
        assert np.allclose(result.x, [1.0, 2.0], atol=1e-8)

        # Where the first step from the origin is blocked at the apex, the
        # degraded solve must take the same interior restart as a plain cold
        # solve, not the origin path.
        apex = QuadraticProgram(
            hessian=np.eye(3) + 0.5,
            gradient=np.array([-1.0, 2.0, -1.0]),
            ineq_matrix=np.array(
                [
                    [1.0, 0.0, 0.0],
                    [0.5, 0.5, 0.0],
                    [0.0, 1.0, 0.0],
                    [0.0, 0.5, 0.5],
                    [0.0, 0.0, 1.0],
                ]
            ),
            ineq_vector=np.zeros(5),
        )
        workspace = QPWorkspace(apex)
        cold = workspace.solve()
        origin = workspace.solve(x0=np.zeros(3))
        degraded = workspace.solve(x0=np.array([-1.0, 0.0, 0.0]), active_set=[0])
        assert cold.converged and degraded.converged
        assert cold.iterations < origin.iterations
        assert np.array_equal(degraded.x, cold.x)
        assert degraded.iterations == cold.iterations

    def test_infeasible_bare_x0_still_rejected(self):
        problem = QuadraticProgram(
            hessian=np.eye(2),
            gradient=np.zeros(2),
            ineq_matrix=np.eye(2),
            ineq_vector=np.zeros(2),
        )
        with pytest.raises(ValueError):
            solve_qp_active_set(problem, x0=np.array([-1.0, 0.0]))


class TestDegenerateProblems:
    def test_degenerate_ties_do_not_cycle(self):
        """Duplicated constraint rows create degenerate pivots; the Bland
        safeguard must still reach the optimum."""
        rng = np.random.default_rng(5)
        n = 6
        root = rng.normal(size=(n, n))
        hessian = root @ root.T + n * np.eye(n)
        gradient = rng.normal(size=n)
        base_rows = rng.normal(size=(2 * n, n))
        rows = np.vstack([base_rows, base_rows, base_rows])  # exact duplicates
        feasible = np.ones(n)
        vector = rows @ feasible - np.tile(rng.uniform(0.0, 0.5, size=2 * n), 3)
        problem = QuadraticProgram(
            hessian=hessian, gradient=gradient, ineq_matrix=rows, ineq_vector=vector
        )
        result = solve_qp(problem, feasible, backend="auto")
        reference = solve_qp(problem, feasible, backend="scipy")
        assert problem.is_feasible(result.x, tol=1e-6)
        assert result.objective == pytest.approx(reference.objective, rel=1e-6, abs=1e-7)

    def test_redundant_equality_rows_tolerated(self):
        eq = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]])  # dependent rows
        problem = QuadraticProgram(
            hessian=np.eye(3),
            gradient=np.array([-1.0, -1.0, -1.0]),
            eq_matrix=eq,
            eq_vector=np.array([1.0, 2.0]),
        )
        result = solve_qp_active_set(problem, x0=np.array([0.5, 0.5, 0.0]))
        assert result.converged
        assert np.allclose(eq @ result.x, [1.0, 2.0], atol=1e-8)

    def test_dependent_equality_rows_keep_multiplier_bookkeeping_aligned(self):
        """With a skipped (dependent) equality row, inequality multipliers
        must still be examined against the factored equality count — the
        working-set inequality below must be released at the optimum."""
        problem = QuadraticProgram(
            hessian=np.eye(3),
            gradient=np.array([-1.0, -1.0, -1.0]),
            eq_matrix=np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]),
            eq_vector=np.zeros(2),
            ineq_matrix=np.array([[0.0, 1.0, 0.0]]),
            ineq_vector=np.array([0.5]),
        )
        start = np.array([0.0, 0.5, 0.0])
        for active_set in (None, [0]):
            result = solve_qp_active_set(problem, x0=start, active_set=active_set)
            assert result.converged
            assert np.allclose(result.x, [0.0, 1.0, 1.0], atol=1e-8)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5000), n=st.integers(min_value=2, max_value=9))
def test_warm_start_objective_never_worse_than_cold(seed, n):
    """Property: warm starts land on the same optimum as cold solves."""
    rng = np.random.default_rng(seed)
    problem, feasible = _random_problem(rng, n)
    cold = solve_qp_active_set(problem, x0=feasible)
    warm = solve_qp_active_set(problem, x0=cold.x, active_set=cold.active_set)
    assert cold.converged and warm.converged
    assert warm.objective == pytest.approx(cold.objective, abs=1e-8)
    assert warm.iterations <= cold.iterations
