"""Tests for repro.core.problem and repro.core.result."""

import numpy as np
import pytest

from repro.core.basis import SplineBasis
from repro.core.constraints import default_constraints
from repro.core.forward import ForwardModel
from repro.core.problem import DeconvolutionProblem
from repro.core.result import DeconvolutionResult
from repro.data.synthetic import single_pulse_profile


@pytest.fixture(scope="module")
def forward(small_kernel):
    return ForwardModel(small_kernel, SplineBasis(num_basis=12))


@pytest.fixture(scope="module")
def measurements(small_kernel):
    return small_kernel.apply_function(single_pulse_profile(amplitude=3.0, baseline=0.2))


class TestProblemAssembly:
    def test_cost_decomposition(self, forward, measurements):
        problem = DeconvolutionProblem(forward, measurements)
        rng = np.random.default_rng(0)
        alpha = rng.normal(size=12)
        lam = 0.3
        assert problem.cost(alpha, lam) == pytest.approx(
            problem.data_misfit(alpha) + lam * problem.roughness(alpha)
        )

    def test_misfit_zero_for_exact_fit(self, forward, measurements):
        problem = DeconvolutionProblem(forward, measurements)
        # Use the unconstrained least-squares solution restricted to the basis.
        alpha, *_ = np.linalg.lstsq(forward.design_matrix, measurements, rcond=None)
        assert problem.data_misfit(alpha) < 1e-4

    def test_sigma_weighting(self, forward, measurements):
        uniform = DeconvolutionProblem(forward, measurements, sigma=1.0)
        scaled = DeconvolutionProblem(forward, measurements, sigma=2.0)
        alpha = np.zeros(12)
        assert scaled.data_misfit(alpha) == pytest.approx(uniform.data_misfit(alpha) / 4.0)

    def test_invalid_sigma(self, forward, measurements):
        with pytest.raises(ValueError):
            DeconvolutionProblem(forward, measurements, sigma=0.0)

    def test_measurement_length_checked(self, forward):
        with pytest.raises(ValueError):
            DeconvolutionProblem(forward, np.ones(3))

    def test_quadratic_program_hessian_properties(self, forward, measurements):
        problem = DeconvolutionProblem(forward, measurements, constraints=default_constraints())
        program = problem.quadratic_program(0.1)
        assert np.allclose(program.hessian, program.hessian.T)
        eigenvalues = np.linalg.eigvalsh(program.hessian)
        assert eigenvalues.min() > 0
        assert program.ineq_matrix is not None
        assert program.eq_matrix is not None and program.eq_matrix.shape[0] == 2

    def test_solution_cost_increases_with_lambda_roughness_decreases(self, forward, measurements):
        problem = DeconvolutionProblem(forward, measurements, constraints=default_constraints())
        small_lam = problem.solve(1e-5)
        large_lam = problem.solve(1e1)
        assert problem.roughness(large_lam.x) <= problem.roughness(small_lam.x) + 1e-9
        assert problem.data_misfit(large_lam.x) >= problem.data_misfit(small_lam.x) - 1e-9

    def test_qp_backends_agree(self, forward, measurements):
        problem = DeconvolutionProblem(forward, measurements, constraints=default_constraints())
        ours = problem.solve(1e-3, backend="active_set")
        scipy_result = problem.solve(1e-3, backend="scipy")
        assert ours.converged and scipy_result.converged
        assert problem.cost(ours.x, 1e-3) == pytest.approx(
            problem.cost(scipy_result.x, 1e-3), rel=1e-4, abs=1e-6
        )

    def test_restrict_preserves_structure(self, forward, measurements):
        problem = DeconvolutionProblem(forward, measurements, constraints=default_constraints())
        subset = problem.restrict(np.array([0, 2, 4, 6]))
        assert subset.measurements.size == 4
        assert subset.constraint_set is problem.constraint_set
        rng = np.random.default_rng(1)
        alpha = rng.normal(size=12)
        assert subset.roughness(alpha) == pytest.approx(problem.roughness(alpha))

    def test_negative_lambda_rejected(self, forward, measurements):
        problem = DeconvolutionProblem(forward, measurements)
        with pytest.raises(ValueError):
            problem.quadratic_program(-1.0)


class TestDeconvolutionResult:
    @pytest.fixture(scope="class")
    def result(self, forward, measurements):
        problem = DeconvolutionProblem(forward, measurements, constraints=default_constraints())
        qp = problem.solve(1e-3)
        return DeconvolutionResult(
            coefficients=qp.x,
            basis=forward.basis,
            lam=1e-3,
            times=forward.kernel.times,
            measurements=measurements,
            fitted=forward.predict(qp.x),
            sigma=np.ones_like(measurements),
            data_misfit=problem.data_misfit(qp.x),
            roughness=problem.roughness(qp.x),
            solver_converged=qp.converged,
            solver_iterations=qp.iterations,
            mean_cycle_time=150.0,
        )

    def test_profile_evaluation(self, result):
        phases, values = result.profile_on_grid(101)
        assert phases.shape == values.shape == (101,)
        assert isinstance(result.profile(0.5), float)
        assert np.all(values >= -1e-6)

    def test_profile_vs_time_scaling(self, result):
        times, values = result.profile_vs_time(51)
        assert times[-1] == pytest.approx(150.0)
        assert np.allclose(values, result.profile(times / 150.0))

    def test_residuals_and_cost(self, result):
        assert np.allclose(result.residuals, result.measurements - result.fitted)
        assert result.cost() == pytest.approx(result.data_misfit + result.lam * result.roughness)

    def test_rmse_against_truth(self, result):
        phases = np.linspace(0, 1, 51)
        truth = result.profile(phases)
        assert result.rmse_against(phases, truth) == pytest.approx(0.0, abs=1e-12)
        assert result.rmse_against(phases, truth + 1.0) == pytest.approx(1.0)

    def test_summary_mentions_key_fields(self, result):
        text = result.summary()
        assert "lambda" in text
        assert "data misfit" in text

    def test_derivative_consistent_with_finite_difference(self, result):
        phase = 0.4
        h = 1e-5
        numeric = (result.profile(phase + h) - result.profile(phase - h)) / (2 * h)
        assert result.profile_derivative(phase) == pytest.approx(numeric, rel=1e-3, abs=1e-4)
