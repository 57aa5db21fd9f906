"""Tests for repro.core.lambda_selection and repro.core.diagnostics."""

import numpy as np
import pytest

from repro.core.basis import SplineBasis
from repro.core.constraints import default_constraints
from repro.core.diagnostics import compute_diagnostics, effective_degrees_of_freedom
from repro.core.forward import ForwardModel
from repro.core.lambda_selection import (
    default_lambda_grid,
    generalized_cross_validation,
    k_fold_cross_validation,
    select_lambda,
)
from repro.core.problem import DeconvolutionProblem
from repro.core.deconvolver import Deconvolver
from repro.data.noise import GaussianMagnitudeNoise
from repro.data.synthetic import single_pulse_profile


@pytest.fixture(scope="module")
def noisy_problem(small_kernel, paper_parameters):
    truth = single_pulse_profile(amplitude=2.0, baseline=0.3)
    clean = small_kernel.apply_function(truth)
    noise = GaussianMagnitudeNoise(0.08)
    values = noise.apply(clean, 7)
    sigma = noise.standard_deviations(clean)
    forward = ForwardModel(small_kernel, SplineBasis(num_basis=12))
    return DeconvolutionProblem(
        forward, values, sigma=sigma, constraints=default_constraints(), parameters=paper_parameters
    )


class TestLambdaGrid:
    def test_default_grid_is_logarithmic(self):
        grid = default_lambda_grid(5, 1e-4, 1.0)
        assert grid.size == 5
        assert np.allclose(np.diff(np.log10(grid)), 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            default_lambda_grid(1)
        with pytest.raises(ValueError):
            default_lambda_grid(5, 1.0, 0.1)

    def test_default_arguments_share_one_read_only_grid(self):
        grid = default_lambda_grid()
        assert grid is default_lambda_grid()
        assert np.array_equal(grid, np.logspace(np.log10(1e-6), np.log10(1e2), 13))
        with pytest.raises(ValueError):
            grid[0] = 1.0
        assert default_lambda_grid(13, 1e-6, 1e3) is not grid
        assert default_lambda_grid(13, 1e-6, 1e3).flags.writeable


class TestGCV:
    def test_scores_all_candidates(self, noisy_problem):
        lambdas = default_lambda_grid(6, 1e-5, 1e1)
        selection = generalized_cross_validation(noisy_problem, lambdas)
        assert len(selection.scores) == 6
        assert selection.best_lambda in selection.scores
        assert selection.method == "gcv"

    def test_best_lambda_minimises_score(self, noisy_problem):
        selection = generalized_cross_validation(noisy_problem, default_lambda_grid(7, 1e-5, 1e1))
        best_score = selection.scores[selection.best_lambda]
        assert all(best_score <= score for score in selection.scores.values())

    def test_huge_lambda_penalised_for_underfitting(self, noisy_problem):
        """A very large lambda forces a nearly-flat fit and a worse GCV score."""
        selection = generalized_cross_validation(
            noisy_problem, np.array([1e-4, 1e6])
        )
        assert selection.scores[1e-4] < selection.scores[1e6]


class TestKFoldCV:
    def test_scores_and_selection(self, noisy_problem):
        lambdas = np.array([1e-4, 1e-2, 1e0])
        selection = k_fold_cross_validation(noisy_problem, lambdas, num_folds=4, rng=0)
        assert selection.method == "kfold"
        assert set(selection.scores) == {1e-4, 1e-2, 1e0}
        assert np.isfinite(selection.scores[selection.best_lambda])

    def test_fold_assignment_deterministic(self, noisy_problem):
        lambdas = np.array([1e-3, 1e-1])
        a = k_fold_cross_validation(noisy_problem, lambdas, num_folds=3, rng=5)
        b = k_fold_cross_validation(noisy_problem, lambdas, num_folds=3, rng=5)
        assert a.scores == b.scores

    def test_select_lambda_dispatch(self, noisy_problem):
        assert select_lambda(noisy_problem, method="gcv").method == "gcv"
        assert select_lambda(noisy_problem, np.array([1e-3, 1e-1]), method="kfold").method == "kfold"
        with pytest.raises(ValueError):
            select_lambda(noisy_problem, method="aic")


class TestDiagnostics:
    def test_effective_dof_decreases_with_lambda(self, noisy_problem):
        low = effective_degrees_of_freedom(noisy_problem, 1e-6)
        high = effective_degrees_of_freedom(noisy_problem, 1e2)
        assert high < low
        assert 0 < high and low <= noisy_problem.num_coefficients + 1e-9

    def test_compute_diagnostics_fields(self, small_kernel, paper_parameters, noisy_problem):
        deconvolver = Deconvolver(small_kernel, parameters=paper_parameters, num_basis=12)
        result = deconvolver.fit(
            small_kernel.times, noisy_problem.measurements, sigma=noisy_problem.sigma, lam=1e-3
        )
        diagnostics = compute_diagnostics(noisy_problem, result)
        assert diagnostics.effective_degrees_of_freedom > 0
        assert diagnostics.residual_norm >= 0
        assert diagnostics.max_absolute_residual >= 0
        assert diagnostics.negativity <= 0
        assert diagnostics.negativity >= -1e-6  # positivity enforced
