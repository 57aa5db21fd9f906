"""Equivalence tests for the batched CV / volume-kernel / multi-species paths.

The batched layers must be drop-in replacements: the fold-eigendecomposition
CV scorer against the per-(fold, lambda) constrained solves, the Horner volume
pass against the generic per-pair evaluation, and ``fit_many`` against a loop
of :meth:`Deconvolver.fit` (to 1e-10 with exact lambda), each of its answers
certified as an optimum of its own QP.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cellcycle.volume import SmoothVolumeModel
from repro.core.basis import SplineBasis
from repro.core.constraints import default_constraints
from repro.core.deconvolver import Deconvolver
from repro.core.forward import ForwardModel
from repro.core.lambda_selection import (
    KFoldEigPlan,
    _kfold_scores_solve,
    default_lambda_grid,
    k_fold_cross_validation,
    select_lambda,
)
from repro.core.problem import DeconvolutionProblem
from repro.data.noise import GaussianMagnitudeNoise
from repro.data.synthetic import single_pulse_profile
from repro.numerics.qp import MixedLambdaEigPlan
from repro.utils.rng import as_generator


def solve_scores(problem, lambdas, *, num_folds, rng):
    """k-fold scores from per-(fold, lambda) constrained solves on the folds
    that :func:`k_fold_cross_validation` draws for the same ``rng``."""
    permutation = as_generator(rng).permutation(problem.measurements.size)
    folds = np.array_split(permutation, num_folds)
    totals, valid = _kfold_scores_solve(problem, lambdas, folds, permutation)
    return {
        float(lam): float(total) if ok else np.inf
        for lam, total, ok in zip(lambdas, totals, valid)
    }


def fit_loop(deconvolver, times, matrix, *, lam=None, **kwargs):
    """The serial reference: one :meth:`Deconvolver.fit` per column."""
    lams = lam if isinstance(lam, list) else [lam] * matrix.shape[1]
    return [
        deconvolver.fit(times, matrix[:, column], lam=value, **kwargs)
        for column, value in enumerate(lams)
    ]


def assert_certified_match(results, references, deconvolver, times, matrix, certify):
    """Each result equals its reference fit to 1e-10 with the exact lambda,
    and is a KKT optimum of its own column's QP with its own active set."""
    assert len(results) == len(references) == matrix.shape[1]
    for column, (result, reference) in enumerate(zip(results, references)):
        assert result.lam == reference.lam
        assert np.max(np.abs(result.coefficients - reference.coefficients)) <= 1e-10
        program = deconvolver.build_problem(times, matrix[:, column]).quadratic_program(
            result.lam
        )
        certify(program, result.coefficients, result.solver_active_set)


@pytest.fixture()
def seeded_problem(small_kernel, paper_parameters):
    truth = single_pulse_profile(center=0.45, width=0.12, amplitude=2.0, baseline=0.3)
    clean = small_kernel.apply_function(truth)
    noise = GaussianMagnitudeNoise(0.08)
    values = noise.apply(clean, 17)
    sigma = noise.standard_deviations(clean)
    forward = ForwardModel(small_kernel, SplineBasis(num_basis=12))
    return DeconvolutionProblem(
        forward,
        values,
        sigma=sigma,
        constraints=default_constraints(),
        parameters=paper_parameters,
    )


@pytest.fixture()
def species_matrix(small_kernel, rng):
    truth = single_pulse_profile(center=0.45, width=0.12, amplitude=2.0, baseline=0.3)
    clean = small_kernel.apply_function(truth)
    return np.column_stack(
        [
            clean * (1.0 + 0.25 * species) + 0.02 * rng.normal(size=clean.size)
            for species in range(5)
        ]
    )


class TestKFoldEigEngine:
    def test_scores_match_solve_engine(self, seeded_problem):
        """Fold-eig CV scores match the per-fold constrained solves to 1e-8."""
        lambdas = default_lambda_grid(11, 1e-6, 1e2)
        reference = solve_scores(seeded_problem, lambdas, num_folds=4, rng=3)
        eig = k_fold_cross_validation(seeded_problem, lambdas, num_folds=4, rng=3)
        assert eig.best_lambda == min(reference, key=reference.get)
        assert set(eig.scores) == set(reference)
        for lam, expected in reference.items():
            assert eig.scores[lam] == pytest.approx(expected, rel=1e-8, abs=1e-8)

    def test_default_scoring_uses_the_eig_plan(self, seeded_problem, monkeypatch):
        """At the default ridge the plan scores the grid; the per-fold solve
        fallback never runs."""

        def forbidden(*args, **kwargs):
            raise AssertionError("the solve fallback ran on a regular pencil")

        monkeypatch.setattr("repro.core.lambda_selection._kfold_scores_solve", forbidden)
        k_fold_cross_validation(seeded_problem, default_lambda_grid(7), rng=0)
        assert len(self._cached_plans(seeded_problem)) == 1

    @staticmethod
    def _cached_plans(problem):
        return [
            entry[1]
            for entry in problem._selection_caches.values()
            if isinstance(entry[1], KFoldEigPlan)
        ]

    def test_plan_cached_and_shared_with_siblings(self, seeded_problem):
        lambdas = default_lambda_grid(7)
        k_fold_cross_validation(seeded_problem, lambdas, rng=0)
        assert len(self._cached_plans(seeded_problem)) == 1
        sibling = seeded_problem.with_measurements(seeded_problem.measurements * 1.1)
        k_fold_cross_validation(sibling, lambdas, rng=0)
        assert sibling._selection_caches is seeded_problem._selection_caches
        assert len(self._cached_plans(sibling)) == 1

    def test_plan_cache_stays_bounded_under_generator_rng(self, seeded_problem):
        """A shared Generator draws fresh folds per call; the one-slot plan
        cache replaces the entry instead of accumulating one plan per call."""
        lambdas = default_lambda_grid(5)
        generator = np.random.default_rng(9)
        for _ in range(4):
            k_fold_cross_validation(
                seeded_problem, lambdas, rng=generator
            )
        assert len(self._cached_plans(seeded_problem)) == 1

    def test_sibling_scores_match_fresh_problem(self, seeded_problem, paper_parameters):
        """Scoring through a cached plan equals scoring from a cold problem."""
        lambdas = default_lambda_grid(7)
        k_fold_cross_validation(seeded_problem, lambdas, rng=0)
        new_values = seeded_problem.measurements * 1.1
        via_plan = k_fold_cross_validation(
            seeded_problem.with_measurements(new_values), lambdas, rng=0
        )
        fresh = DeconvolutionProblem(
            seeded_problem.forward,
            new_values,
            sigma=seeded_problem.sigma,
            constraints=seeded_problem.constraints,
            parameters=paper_parameters,
        )
        cold = k_fold_cross_validation(fresh, lambdas, rng=0)
        for lam, expected in cold.scores.items():
            assert via_plan.scores[lam] == pytest.approx(expected, rel=1e-10)


class TestKFoldPlanEdgeCases:
    def test_empty_test_fold_contributes_zero(self, seeded_problem):
        """A fold with no held-out points scores zero instead of crashing."""
        lambdas = default_lambda_grid(5)
        num = seeded_problem.measurements.size
        permutation = np.arange(num)
        folds = [
            np.arange(num // 2),
            np.arange(num // 2, num),
            np.arange(0),  # empty held-out fold
        ]
        plan = KFoldEigPlan(seeded_problem, lambdas, folds, permutation)
        totals, valid = plan.score(seeded_problem.measurements)
        assert np.all(np.isfinite(totals))
        reference = KFoldEigPlan(seeded_problem, lambdas, folds[:2], permutation)
        ref_totals, ref_valid = reference.score(seeded_problem.measurements)
        np.testing.assert_allclose(totals, ref_totals, rtol=1e-12)
        np.testing.assert_array_equal(valid, ref_valid)

    def test_single_candidate_grid(self, seeded_problem):
        result = k_fold_cross_validation(
            seeded_problem, np.array([1e-3]), num_folds=3, rng=0
        )
        assert result.best_lambda == 1e-3
        assert set(result.scores) == {1e-3}
        reference = solve_scores(seeded_problem, np.array([1e-3]), num_folds=3, rng=0)
        assert result.scores[1e-3] == pytest.approx(reference[1e-3], rel=1e-8)

    def test_warm_rescoring_is_deterministic(self, seeded_problem):
        """Repeated scoring through the cached plan reproduces the scores.

        The second call verifies the remembered active sets through the
        batched KKT path; because cold fallback solves are snapped onto the
        same KKT systems, the warm scores agree to the last float rounding
        (stacking candidates with a shared active set may permute rounding
        at the ulp level).
        """
        lambdas = default_lambda_grid(9, 1e-6, 1e2)
        first = k_fold_cross_validation(seeded_problem, lambdas, rng=1)
        second = k_fold_cross_validation(seeded_problem, lambdas, rng=1)
        assert set(first.scores) == set(second.scores)
        for lam, expected in first.scores.items():
            assert second.scores[lam] == pytest.approx(expected, rel=1e-12)


class TestBatchedVolumeKernel:
    def test_pair_evaluation_matches_generic_path(self, rng):
        """Horner pair pass matches per-pair ``volume`` to machine precision."""
        model = SmoothVolumeModel(v0=1.7)
        num_cells = 300
        transition = rng.uniform(0.35, 0.75, size=num_cells)
        cell_idx = rng.integers(0, num_cells, size=4000)
        phi = rng.uniform(0.0, 1.0, size=cell_idx.size)
        batched = model.volume_for_cells(phi, transition, cell_idx)
        generic = model.volume(phi, transition[cell_idx])
        np.testing.assert_allclose(batched, generic, rtol=1e-14, atol=1e-14)

    def test_boundary_phases_and_coefficient_reuse(self, rng):
        model = SmoothVolumeModel()
        transition = rng.uniform(0.4, 0.7, size=8)
        cell_idx = np.arange(8)
        phi = np.concatenate([np.zeros(4), np.ones(4)])
        first = model.volume_for_cells(phi, transition, cell_idx)
        # Second call hits the memoised coefficients; results are identical.
        second = model.volume_for_cells(phi, transition, cell_idx)
        np.testing.assert_array_equal(first, second)
        np.testing.assert_allclose(first, model.volume(phi, transition[cell_idx]), rtol=1e-14)

    def test_invalid_inputs_still_rejected(self):
        model = SmoothVolumeModel()
        with pytest.raises(ValueError):
            model.volume_for_cells(np.array([1.5]), np.array([0.5]), np.array([0]))
        with pytest.raises(ValueError):
            model.volume_for_cells(np.array([0.5]), np.array([1.0]), np.array([0]))


class TestKFoldSolveFallback:
    """A degenerate pencil makes the eig plan raise; the grid is then scored
    by per-(fold, lambda) constrained solves, with no option to ask for it."""

    def test_zero_ridge_and_zero_lambda_fall_back_to_solves(
        self, seeded_problem, paper_parameters, monkeypatch
    ):
        problem = DeconvolutionProblem(
            seeded_problem.forward,
            seeded_problem.measurements,
            sigma=seeded_problem.sigma,
            constraints=default_constraints(),
            parameters=paper_parameters,
            ridge=0.0,
        )
        lambdas = np.array([0.0, 1e-4, 1e-2, 1.0])
        calls = []
        original = _kfold_scores_solve

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr("repro.core.lambda_selection._kfold_scores_solve", spy)
        order = np.arange(problem.measurements.size)
        with pytest.raises(np.linalg.LinAlgError):
            KFoldEigPlan(problem, lambdas, np.array_split(order, 2), order)
        selection = select_lambda(problem, lambdas, method="kfold", num_folds=2, rng=0)
        assert len(calls) == 1
        reference = solve_scores(problem, lambdas, num_folds=2, rng=0)
        assert selection.scores == reference
        assert selection.best_lambda == min(reference, key=reference.get)


class TestFitManyBatched:
    @pytest.mark.parametrize("method", ["gcv", "kfold"])
    def test_batch_engine_matches_serial_solve_results(
        self, small_kernel, paper_parameters, measurement_times, species_matrix, method,
        certify,
    ):
        """fit_many agrees with a loop of fit to 1e-10, and each answer is certified."""
        batched = Deconvolver(small_kernel, parameters=paper_parameters, num_basis=12)
        batched_results = batched.fit_many(
            measurement_times, species_matrix, lambda_method=method
        )
        serial = Deconvolver(small_kernel, parameters=paper_parameters, num_basis=12)
        serial_results = fit_loop(
            serial, measurement_times, species_matrix, lambda_method=method
        )
        assert_certified_match(
            batched_results, serial_results, serial, measurement_times, species_matrix, certify
        )
        for a, b in zip(batched_results, serial_results):
            np.testing.assert_allclose(a.fitted, b.fitted, atol=1e-10)

    def test_single_lambda_grid(
        self, small_kernel, paper_parameters, measurement_times, species_matrix, certify
    ):
        """A one-candidate grid flows through selection and the stacked solve."""
        grid = np.array([1e-3])
        batched = Deconvolver(small_kernel, parameters=paper_parameters, num_basis=12)
        results = batched.fit_many(
            measurement_times, species_matrix, lambda_method="kfold", lambda_grid=grid
        )
        assert all(result.lam == 1e-3 for result in results)
        assert all(result.solver_converged for result in results)
        serial = Deconvolver(small_kernel, parameters=paper_parameters, num_basis=12)
        reference = fit_loop(
            serial, measurement_times, species_matrix, lambda_method="kfold", lambda_grid=grid
        )
        assert_certified_match(
            results, reference, serial, measurement_times, species_matrix, certify
        )

    def test_fixed_lambda_parallel(
        self, small_kernel, paper_parameters, measurement_times, species_matrix
    ):
        deconvolver = Deconvolver(small_kernel, parameters=paper_parameters, num_basis=12)
        results = deconvolver.fit_many(measurement_times, species_matrix, lam=1e-3)
        assert all(result.lam == 1e-3 for result in results)
        assert all(result.solver_converged for result in results)

    def test_matrix_shape_validated(self, small_kernel, paper_parameters, measurement_times):
        deconvolver = Deconvolver(small_kernel, parameters=paper_parameters, num_basis=12)
        with pytest.raises(ValueError):
            deconvolver.fit_many(measurement_times, np.zeros(measurement_times.size))


class TestPerSpeciesLambda:
    """fit_many accepts one lambda per column (the service layer's bucket merge)."""

    def test_lam_sequence_matches_per_species_fits(
        self, small_kernel, paper_parameters, species_matrix
    ):
        deconvolver = Deconvolver(small_kernel, parameters=paper_parameters, num_basis=12)
        lams = [1e-3, 1e-2, 1e-3, 1e-1, 1e-2]
        batch = deconvolver.fit_many(small_kernel.times, species_matrix, lam=lams)
        for column, (lam, result) in enumerate(zip(lams, batch)):
            reference = deconvolver.fit(
                small_kernel.times, species_matrix[:, column], lam=lam
            )
            assert result.lam == lam
            assert np.max(np.abs(result.coefficients - reference.coefficients)) <= 1e-10

    def test_lam_sequence_none_entries_select_automatically(
        self, small_kernel, paper_parameters, species_matrix
    ):
        deconvolver = Deconvolver(small_kernel, parameters=paper_parameters, num_basis=12)
        lams = [1e-3, None, None, 1e-2, None]
        batch = deconvolver.fit_many(small_kernel.times, species_matrix, lam=lams)
        for column, (lam, result) in enumerate(zip(lams, batch)):
            reference = deconvolver.fit(
                small_kernel.times, species_matrix[:, column], lam=lam
            )
            assert result.lam == reference.lam
            assert np.max(np.abs(result.coefficients - reference.coefficients)) <= 1e-10

    def test_lam_sequence_serial_engine_matches_batch(
        self, small_kernel, paper_parameters, species_matrix, certify
    ):
        deconvolver = Deconvolver(small_kernel, parameters=paper_parameters, num_basis=12)
        lams = [1e-3, 1e-2, 1e-3, 1e-2, 1e-3]
        times = small_kernel.times
        batch = deconvolver.fit_many(times, species_matrix, lam=lams)
        serial = fit_loop(deconvolver, times, species_matrix, lam=lams)
        assert_certified_match(batch, serial, deconvolver, times, species_matrix, certify)

    def test_lam_sequence_length_validated(
        self, small_kernel, paper_parameters, species_matrix
    ):
        deconvolver = Deconvolver(small_kernel, parameters=paper_parameters, num_basis=12)
        with pytest.raises(ValueError):
            deconvolver.fit_many(small_kernel.times, species_matrix, lam=[1e-3, 1e-2])


class TestBatchedGCVSelection:
    """The matrix GCV scorer must select exactly like the per-species scorer."""

    def test_selected_lambdas_and_scores_match(self, seeded_problem, species_matrix):
        from repro.core.lambda_selection import (
            generalized_cross_validation,
            generalized_cross_validation_batch,
        )

        lambdas = default_lambda_grid(11)
        batch = generalized_cross_validation_batch(seeded_problem, species_matrix, lambdas)
        for column, selection in enumerate(batch):
            reference = generalized_cross_validation(
                seeded_problem.with_measurements(species_matrix[:, column]), lambdas
            )
            assert selection.best_lambda == reference.best_lambda
            for lam, score in reference.scores.items():
                assert selection.scores[lam] == pytest.approx(score, rel=1e-9)

    def test_rejects_vector_input(self, seeded_problem):
        from repro.core.lambda_selection import generalized_cross_validation_batch

        with pytest.raises(ValueError):
            generalized_cross_validation_batch(
                seeded_problem, seeded_problem.measurements, default_lambda_grid(5)
            )


class TestSolveMixed:
    """The stacked mixed-lambda pass must return verified per-group optima."""

    LAMS = [1e-3, 1e-2, 1e-3, 3e-2, 1e-2]

    def test_matches_per_column_solves(self, seeded_problem, species_matrix):
        mixed = seeded_problem.solve_mixed(self.LAMS, species_matrix)
        assert mixed.num_problems == species_matrix.shape[1]
        for column, lam in enumerate(self.LAMS):
            sibling = seeded_problem.with_measurements(species_matrix[:, column])
            reference = sibling.solve(lam)
            assert np.max(np.abs(mixed.x[column] - reference.x)) <= 1e-10
            assert mixed.objectives[column] == pytest.approx(
                reference.objective, rel=1e-9, abs=1e-12
            )
            assert mixed.converged[column]

    def test_stacked_rows_exist_and_plan_is_cached(self, seeded_problem, species_matrix):
        """The eig plan solves at least part of the batch and is reused."""
        first = seeded_problem.solve_mixed(self.LAMS, species_matrix)
        assert first.num_fallback < first.num_problems
        second = seeded_problem.solve_mixed(self.LAMS, species_matrix)
        # Remembered working sets can only grow coverage, never shrink it.
        assert second.num_fallback <= first.num_fallback
        assert np.max(np.abs(second.x - first.x)) <= 1e-12

    def test_single_distinct_lambda_delegates_to_solve_batch(
        self, seeded_problem, species_matrix
    ):
        lam = 1e-2
        mixed = seeded_problem.solve_mixed([lam] * 5, species_matrix)
        batch = seeded_problem.solve_batch(lam, species_matrix)
        assert np.max(np.abs(mixed.x - batch.x)) == 0.0
        assert list(mixed.fallback) == list(batch.fallback)

    def test_no_columns_is_an_empty_result(self, seeded_problem, species_matrix):
        empty = seeded_problem.solve_mixed([], species_matrix[:, :0])
        assert empty.num_problems == 0
        assert empty.x.shape == (0, seeded_problem.num_coefficients)
        assert empty.active_sets == []

    def test_plan_per_shift_survives_alternating_batches(
        self, seeded_problem, species_matrix, monkeypatch
    ):
        """Batches at two lambda shifts keep one plan each instead of thrashing."""
        shifts = []
        original_init = MixedLambdaEigPlan.__init__

        def counting_init(plan, gram, penalty, ridge, shift, **kwargs):
            shifts.append(shift)
            original_init(plan, gram, penalty, ridge, shift, **kwargs)

        monkeypatch.setattr(MixedLambdaEigPlan, "__init__", counting_init)
        fixed = [1e-3, 1e-2, 1e-3, 1e-2, 1e-3]  # shift 10^-2.5
        selected = [1e-6, 1e-5, 1e-6, 1e-5, 1e-6]  # shift 10^-5.5
        first = {}
        for _ in range(3):
            for name, lams in (("fixed", fixed), ("selected", selected)):
                batch = seeded_problem.solve_mixed(lams, species_matrix)
                first.setdefault(name, batch)
                assert np.max(np.abs(batch.x - first[name].x)) <= 1e-12
        assert shifts == pytest.approx([10.0**-2.5, 10.0**-5.5])
        for name, lams in (("fixed", fixed), ("selected", selected)):
            for column, lam in enumerate(lams):
                sibling = seeded_problem.with_measurements(species_matrix[:, column])
                reference = sibling.solve(lam)
                assert np.max(np.abs(first[name].x[column] - reference.x)) <= 1e-10

    def test_shape_validation(self, seeded_problem, species_matrix):
        with pytest.raises(ValueError):
            seeded_problem.solve_mixed([1e-3, 1e-2], species_matrix)
        with pytest.raises(ValueError):
            seeded_problem.solve_mixed(self.LAMS, species_matrix[:, 0])


class TestCrossLambdaFitMany:
    """fit_many's mixed-lambda batches route through one stacked eig pass."""

    LAMS = [1e-3, 1e-2, 1e-3, 3e-2, 1e-2]

    def test_stacked_pass_matches_individual_fits(
        self, small_kernel, paper_parameters, species_matrix
    ):
        deconvolver = Deconvolver(small_kernel, parameters=paper_parameters, num_basis=12)
        batch = deconvolver.fit_many(small_kernel.times, species_matrix, lam=self.LAMS)
        for column, (lam, result) in enumerate(zip(self.LAMS, batch)):
            reference = deconvolver.fit(
                small_kernel.times, species_matrix[:, column], lam=lam
            )
            assert result.lam == lam
            assert np.max(np.abs(result.coefficients - reference.coefficients)) <= 1e-10


class TestBatchValidatedOnce:
    """fit_many's batch engine checks the matrix once, then never per column."""

    LAMS = [1e-3, 1e-2, 1e-3, 3e-2, 1e-2]

    @pytest.fixture()
    def deconvolver(self, small_kernel, paper_parameters):
        return Deconvolver(small_kernel, parameters=paper_parameters, num_basis=12)

    @pytest.fixture()
    def no_solves(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a solve ran before the batch was validated")

        for name in ("solve", "solve_batch", "solve_mixed"):
            monkeypatch.setattr(DeconvolutionProblem, name, forbidden)
        monkeypatch.setattr(
            "repro.core.deconvolver.generalized_cross_validation_batch", forbidden
        )

    @pytest.mark.parametrize("lam", [1e-3, LAMS, None], ids=["single", "mixed", "gcv"])
    def test_nan_column_rejected_before_any_solve(
        self, deconvolver, species_matrix, lam, no_solves
    ):
        bad = species_matrix.copy()
        bad[2, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            deconvolver.fit_many(deconvolver.kernel.times, bad, lam=lam)

    def test_wrong_row_count_rejected_before_any_solve(
        self, deconvolver, species_matrix, no_solves
    ):
        with pytest.raises(ValueError, match="length does not match"):
            deconvolver.fit_many(
                deconvolver.kernel.times, species_matrix[:-1], lam=self.LAMS
            )

    @pytest.mark.parametrize(
        "lam, columns",
        [
            (LAMS, slice(None)),  # one stacked mixed-lambda solve_mixed
            (1e-2, slice(None)),  # one per-lambda solve_batch
            (1e-2, slice(0, 1)),  # a one-column batch: a one-row solve_batch
            (None, slice(None)),  # batched GCV selection, then solve_batch
        ],
        ids=["mixed", "single", "singleton", "gcv"],
    )
    def test_batch_paths_match_serial_engine(
        self, deconvolver, species_matrix, lam, columns, certify
    ):
        matrix = species_matrix[:, columns]
        if isinstance(lam, list):
            lam = lam[columns]
        times = deconvolver.kernel.times
        batch = deconvolver.fit_many(times, matrix, lam=lam)
        serial = fit_loop(deconvolver, times, matrix, lam=lam)
        assert_certified_match(batch, serial, deconvolver, times, matrix, certify)
        for column, (a, b) in enumerate(zip(batch, serial)):
            assert a.data_misfit == pytest.approx(b.data_misfit, rel=1e-9, abs=1e-12)
            # The batch scores GCV in one matrix pass, fit one column at a
            # time: equal grids, scores equal to rounding.
            assert a.lambda_path.keys() == b.lambda_path.keys()
            for lam_value, score in b.lambda_path.items():
                assert a.lambda_path[lam_value] == pytest.approx(score, rel=1e-9)
            np.testing.assert_array_equal(a.measurements, matrix[:, column])
            np.testing.assert_array_equal(a.times, times)

    @pytest.mark.parametrize("lam", [1e-3, None], ids=["fixed", "gcv"])
    def test_no_columns_no_results(self, deconvolver, species_matrix, lam):
        times = deconvolver.kernel.times
        assert deconvolver.fit_many(times, species_matrix[:, :0], lam=lam) == []

    def test_results_own_their_arrays(self, deconvolver, species_matrix):
        times = deconvolver.kernel.times.copy()
        matrix = species_matrix.copy()
        results = deconvolver.fit_many(times, matrix, lam=self.LAMS)
        results[0].measurements[:] = -1.0
        results[0].times[:] = -1.0
        for column, result in enumerate(results[1:], start=1):
            np.testing.assert_array_equal(result.measurements, species_matrix[:, column])
            np.testing.assert_array_equal(result.times, times)
        # Neither the caller's inputs nor the first fit's backing problem moved.
        np.testing.assert_array_equal(matrix, species_matrix)
        np.testing.assert_array_equal(deconvolver.kernel.times, times)
        reference = deconvolver.fit(times, species_matrix[:, 0], lam=self.LAMS[0])
        assert results[0].data_misfit == pytest.approx(reference.data_misfit, rel=1e-9)
