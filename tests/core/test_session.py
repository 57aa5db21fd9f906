"""Tests for the experiment-scoped FitSession: cross-grid caching and batching.

Covers the session-layer guarantees the architecture relies on:

* same-grid fits share one assembled problem and one kernel (identity);
* different grids coexist in one session without colliding or evicting
  each other (the pre-session cache held a single slot);
* ``with_measurements`` / ``restrict`` siblings still share the
  measurement-independent ``selection_cache``;
* ``fit_many`` over one ``fit_options_bucket`` (mixed fixed lambdas, or
  one selection method) matches one-shot ``fit`` to 1e-10;
* the shared assembly pipeline (AssemblyContext, penalty memo, shared
  constraint rows) reproduces the per-constraint assembly exactly.
"""

import numpy as np
import pytest

from repro.cellcycle.kernel import KernelBuilder
from repro.cellcycle.parameters import CellCycleParameters
from repro.core.basis import SplineBasis
from repro.core.constraints import (
    assembly_context,
    build_constraint_set,
    clear_assembly_caches,
    default_constraints,
)
from repro.core.deconvolver import Deconvolver
from repro.core.session import FitSession, fit_options_bucket
from repro.data.synthetic import single_pulse_profile


@pytest.fixture(scope="module")
def parameters():
    return CellCycleParameters()


@pytest.fixture(scope="module")
def builder(parameters):
    return KernelBuilder(parameters, num_cells=1500, phase_bins=40)


@pytest.fixture(scope="module")
def grids():
    return np.linspace(0.0, 150.0, 10), np.linspace(0.0, 120.0, 8)


@pytest.fixture(scope="module")
def kernels(builder, grids):
    return tuple(builder.build(times, rng=index) for index, times in enumerate(grids))


@pytest.fixture()
def deconvolver(parameters, builder):
    return Deconvolver(parameters=parameters, kernel_builder=builder, num_basis=10)


def _measurements(kernel, scale=1.0):
    return scale * kernel.apply_function(single_pulse_profile(amplitude=1.5, baseline=0.2))


class TestCrossGridCaching:
    def test_same_grid_shares_problem_and_kernel(self, deconvolver, grids, kernels):
        times, _ = grids
        session = deconvolver.session()
        session.register_kernel(kernels[0])
        values = _measurements(kernels[0])
        deconvolver.fit(times, values, lam=1e-3)
        workspace = deconvolver.fit_workspace(times)
        # Identity: repeated fits on the grid reuse the same template problem
        # and kernel objects, not equal copies.
        assert deconvolver.fit_workspace(times) is workspace
        assert deconvolver.fit_workspace(times).template is workspace.template
        assert workspace.kernel is kernels[0]
        deconvolver.fit(times, values * 1.1, lam=1e-3)
        assert deconvolver.fit_workspace(times) is workspace

    def test_different_grids_do_not_collide(self, deconvolver, grids, kernels):
        session = deconvolver.session()
        for kernel in kernels:
            session.register_kernel(kernel)
        first = deconvolver.fit_workspace(grids[0])
        second = deconvolver.fit_workspace(grids[1])
        assert first is not second
        assert first.kernel is kernels[0] and second.kernel is kernels[1]
        # Returning to an earlier grid must hand back the original workspace
        # (the pre-session single-slot cache would have evicted it).
        assert deconvolver.fit_workspace(grids[0]) is first
        assert deconvolver.fit_workspace(grids[1]) is second
        assert session.num_grids == 2 and session.num_workspaces == 2

    def test_sigma_variants_share_kernel_and_forward(self, deconvolver, grids, kernels):
        times, _ = grids
        deconvolver.session().register_kernel(kernels[0])
        uniform = deconvolver.fit_workspace(times)
        weighted = deconvolver.fit_workspace(times, sigma=0.05)
        assert uniform is not weighted
        assert weighted.kernel is uniform.kernel
        assert weighted.forward is uniform.forward
        assert weighted.template is not uniform.template

    def test_config_change_starts_fresh_session(self, deconvolver, grids, kernels):
        times, _ = grids
        deconvolver.session().register_kernel(kernels[0])
        session = deconvolver.session()
        deconvolver.fit(times, _measurements(kernels[0]), lam=1e-3)
        deconvolver.constraints = []
        assert deconvolver.session() is not session
        assert deconvolver.fit_workspace(times, rng=5).template.constraints == []

    def test_mismatched_explicit_kernel_still_rejected(self, parameters, kernels, grids):
        deconvolver = Deconvolver(kernels[0], parameters=parameters, num_basis=10)
        with pytest.raises(ValueError):
            deconvolver.session().kernel_for(grids[0] + 1.0)

    def test_siblings_share_selection_cache(self, deconvolver, grids, kernels):
        times, _ = grids
        deconvolver.session().register_kernel(kernels[0])
        workspace = deconvolver.fit_workspace(times)
        template = workspace.template
        sibling = template.with_measurements(_measurements(kernels[0]))
        restricted = template.restrict(np.arange(times.size - 2))
        sentinel = object()
        assert template.selection_cache("probe", lambda: sentinel) is sentinel
        # with_measurements shares the cache dict itself; restrict starts a
        # fresh problem family with its own caches.
        assert sibling.selection_cache("probe", lambda: None) is sentinel
        assert sibling._selection_caches is template._selection_caches
        assert restricted._selection_caches is not template._selection_caches
        restricted_sibling = restricted.with_measurements(restricted.measurements)
        assert restricted_sibling._selection_caches is restricted._selection_caches

    def test_shared_constraint_set_across_grids(self, deconvolver, grids, kernels):
        session = deconvolver.session()
        for kernel in kernels:
            session.register_kernel(kernel)
        first = deconvolver.fit_workspace(grids[0])
        second = deconvolver.fit_workspace(grids[1])
        assert first.template.constraint_set is second.template.constraint_set
        assert first.template.constraint_set is session.constraint_set


class TestBatchedFits:
    def test_fit_many_per_grid_matches_one_shot_fit(self, deconvolver, grids, kernels):
        session = deconvolver.session()
        for kernel in kernels:
            session.register_kernel(kernel)
        columns = {
            0: [(_measurements(kernels[0]), 1e-3), (_measurements(kernels[0], 1.2), 1e-3),
                (_measurements(kernels[0], 0.8), 1e-2)],
            1: [(_measurements(kernels[1]), 1e-3)],
        }
        for index, pairs in columns.items():
            matrix = np.column_stack([values for values, _ in pairs])
            results = session.fit_many(grids[index], matrix, lam=[lam for _, lam in pairs])
            for (values, lam), result in zip(pairs, results):
                reference = deconvolver.fit(grids[index], values, lam=lam)
                assert np.max(np.abs(result.coefficients - reference.coefficients)) <= 1e-10
                assert result.lam == reference.lam

    def test_fit_many_matches_fit_with_lambda_selection(self, deconvolver, grids, kernels):
        times, _ = grids
        session = deconvolver.session()
        session.register_kernel(kernels[0])
        values = _measurements(kernels[0])
        results = session.fit_many(times, np.column_stack([values, values * 1.3]))
        for scale, result in zip((1.0, 1.3), results):
            reference = deconvolver.fit(times, values * scale)
            assert result.lam == pytest.approx(reference.lam, rel=1e-12)
            assert np.max(np.abs(result.coefficients - reference.coefficients)) <= 1e-10


    def test_fit_many_follows_column_order(self, deconvolver, grids, kernels):
        times, _ = grids
        session = deconvolver.session()
        session.register_kernel(kernels[0])
        columns = [_measurements(kernels[0], scale) for scale in (0.7, 1.0, 1.4)]
        lams = [1e-2, 1e-3, 1e-2]
        forward = session.fit_many(times, np.column_stack(columns), lam=lams)
        backward = session.fit_many(times, np.column_stack(columns[::-1]), lam=lams[::-1])
        for result, twin in zip(forward, backward[::-1]):
            assert result.lam == twin.lam
            assert np.max(np.abs(result.coefficients - twin.coefficients)) <= 1e-10

    def test_fit_many_leaves_its_input_untouched(self, deconvolver, grids, kernels):
        times, _ = grids
        session = deconvolver.session()
        session.register_kernel(kernels[0])
        matrix = np.column_stack([_measurements(kernels[0]), _measurements(kernels[0], 1.2)])
        before = matrix.copy()
        first = session.fit_many(times, matrix, lam=1e-3)
        np.testing.assert_array_equal(matrix, before)
        # Results own their numbers: editing the input afterwards changes none.
        coefficients = [result.coefficients.copy() for result in first]
        matrix *= 3.0
        for result, expected in zip(first, coefficients):
            np.testing.assert_array_equal(result.coefficients, expected)

    def test_fit_many_rejects_a_lambda_list_of_the_wrong_length(
        self, deconvolver, grids, kernels
    ):
        times, _ = grids
        session = deconvolver.session()
        session.register_kernel(kernels[0])
        matrix = np.column_stack([_measurements(kernels[0]), _measurements(kernels[0], 1.2)])
        with pytest.raises(ValueError, match="one entry per column"):
            session.fit_many(times, matrix, lam=[1e-3])


class TestAssemblyPipeline:
    def test_shared_context_matches_per_constraint_assembly(self, parameters):
        basis = SplineBasis(num_basis=9)
        constraints = default_constraints()
        shared = build_constraint_set(constraints, basis, parameters)
        clear_assembly_caches()
        reference = build_constraint_set(constraints, basis, parameters)
        assert np.array_equal(shared.equality_matrix, reference.equality_matrix)
        assert np.array_equal(shared.inequality_matrix, reference.inequality_matrix)
        assert shared.names == reference.names

    def test_context_memoised_per_configuration(self, parameters):
        clear_assembly_caches()
        basis = SplineBasis(num_basis=8)
        twin = SplineBasis(num_basis=8)
        other = SplineBasis(num_basis=9)
        context = assembly_context(basis, parameters)
        assert assembly_context(basis, parameters) is context
        # Same knot fingerprint -> same context even for a distinct instance.
        assert assembly_context(twin, parameters) is context
        assert assembly_context(other, parameters) is not context
        changed = CellCycleParameters(mu_sst=0.2)
        assert assembly_context(basis, changed) is not context

    def test_context_tables_cached_per_grid_size(self, parameters):
        context = assembly_context(SplineBasis(num_basis=8), parameters)
        table = context.basis_values(101)
        assert context.basis_values(101) is table
        assert context.basis_values(51) is not table
        quadrature = context.density_quadrature(501)
        assert context.density_quadrature(501) is quadrature

    def test_penalty_memo_shared_across_instances(self, parameters):
        clear_assembly_caches()
        first = SplineBasis(num_basis=11)
        second = SplineBasis(num_basis=11)
        assert first.penalty_matrix() is second.penalty_matrix()
        assert SplineBasis(num_basis=12).penalty_matrix() is not first.penalty_matrix()

    def test_explicit_session_constructor_is_adopted(self, deconvolver, grids, kernels):
        session = FitSession(deconvolver)
        session.register_kernel(kernels[0])
        # The facade routes through the explicitly constructed session, so
        # the registered kernel (not a fresh Monte-Carlo build) is used.
        assert deconvolver.session() is session
        result = session.fit(grids[0], _measurements(kernels[0]), lam=1e-3)
        assert result.solver_converged
        assert deconvolver.fit_workspace(grids[0]).kernel is kernels[0]


class TestSessionStats:
    def test_stats_counters_track_usage(self, deconvolver, grids, kernels):
        session = deconvolver.session()
        session.register_kernel(kernels[0])
        stats = session.stats()
        assert stats["grids"] == 1 and stats["workspaces"] == 0
        assert stats["approx_bytes"] > 0
        deconvolver.fit(grids[0], _measurements(kernels[0]), lam=1e-3)
        deconvolver.fit(grids[0], _measurements(kernels[0], 1.2), lam=1e-3)
        stats = session.stats()
        assert stats["workspaces"] == 1
        assert stats["workspace_misses"] == 1
        assert stats["workspace_hits"] >= 1
        assert stats["kernel_builds"] == 0  # registered, never built on demand
        hits = stats["workspace_hits"]
        matrix = np.column_stack([_measurements(kernels[0], 0.9), _measurements(kernels[0])])
        session.fit_many(grids[0], matrix, lam=1e-3)
        stats = session.stats()
        assert stats["workspace_misses"] == 1
        assert stats["workspace_hits"] > hits

    def test_mixed_lambda_columns_share_one_call(self, deconvolver, grids, kernels):
        session = deconvolver.session()
        session.register_kernel(kernels[0])
        values = _measurements(kernels[0])
        assert fit_options_bucket(grids[0], None, 1e-3, "gcv", None) == fit_options_bucket(
            grids[0], None, 1e-2, "gcv", None
        )
        results = session.fit_many(
            grids[0], np.column_stack([values, values * 1.1]), lam=[1e-3, 1e-2]
        )
        assert session.stats()["workspace_misses"] == 1
        for scale, lam, result in ((1.0, 1e-3, results[0]), (1.1, 1e-2, results[1])):
            reference = deconvolver.fit(grids[0], values * scale, lam=lam)
            assert result.lam == reference.lam
            assert np.max(np.abs(result.coefficients - reference.coefficients)) <= 1e-10
