"""Machine-precision equivalence of every ported kernel across backends.

Each hot-path kernel of the ``repro.backends`` function table is checked two
ways:

* the **numpy reference backend** against an independent straightforward
  implementation written here (``np.where`` volume evaluation, per-row
  ``np.convolve`` smoothing, ``searchsorted`` binning, plain loops) — so the
  reference cannot silently drift from its documented semantics;
* the **numba backend** against the numpy reference to the ``<= 1e-12``
  contract (exact for integer outputs).  The ``compiled`` fixture compiles
  the kernels when numba is installed and otherwise runs the same loop
  bodies as plain Python, so the check never skips.

End-to-end cross-backend checks cover the kernel build, constraint assembly
and the stacked QP batch solve, with the active function table pinned to
each backend in turn.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import backends
from repro.backends import numpy_backend

TOL = 1e-12


@pytest.fixture()
def pin_table(monkeypatch):
    """Pin the active kernel-backend table for the rest of one test."""
    def pin(module):
        monkeypatch.setattr(backends, "_active", module)

    return pin


# ---------------------------------------------------------------------------
# Independent reference implementations (deliberately naive).
# ---------------------------------------------------------------------------


def volume_inputs(seed, num_pairs=4096, num_cells=64, transition_range=(0.05, 0.4)):
    gen = np.random.default_rng(seed)
    phi = gen.random(num_pairs)
    transition = gen.uniform(*transition_range, num_cells)
    cell_indices = gen.integers(0, num_cells, num_pairs)
    late_base = gen.uniform(0.4, 0.8, num_cells)
    linear = gen.uniform(0.1, 1.2, num_cells)
    quad = gen.normal(size=num_cells)
    cubic = gen.normal(size=num_cells)
    return phi, transition, cell_indices, late_base, linear, quad, cubic


def volume_where_reference(phi, transition, cell_indices, late_base, linear,
                           quad, cubic, v0):
    early = (0.4 + linear[cell_indices] * phi + quad[cell_indices] * phi ** 2
             + cubic[cell_indices] * phi ** 3)
    late = late_base[cell_indices] + linear[cell_indices] * phi
    return v0 * np.where(phi < transition[cell_indices], early, late)


def smooth_rows_reference(rows, widths, window):
    half = window // 2
    out = np.empty_like(rows)
    for index, row in enumerate(rows):
        padded = np.pad(row, half, mode="edge")
        averaged = np.convolve(padded, np.ones(window), mode="valid") / window
        integral = averaged @ widths
        out[index] = averaged / integral if integral > 0 else row
    return out


def binning_inputs(seed, num_values=2048, num_bins=40):
    gen = np.random.default_rng(seed)
    edges = np.linspace(0.0, 1.0, num_bins + 1)
    values = np.concatenate([
        gen.random(num_values),
        edges,                       # every exact edge, both endpoints
        edges[:-1] + 1e-15,          # just inside each bin
    ])
    return values, edges


# ---------------------------------------------------------------------------
# numpy reference backend vs the naive implementations.
# ---------------------------------------------------------------------------


class TestNumpyReferenceSemantics:
    @pytest.mark.parametrize("transition_range", [(0.05, 0.4), (0.7, 0.95)])
    def test_smooth_volume_matches_where_reference(self, reference, transition_range):
        """Both dominance branches of the masked Horner pass agree."""
        inputs = volume_inputs(11, transition_range=transition_range)
        out = np.empty_like(inputs[0])
        result = reference.smooth_volume_into(*inputs, 1.7, out)
        assert result is out
        expected = volume_where_reference(*inputs, 1.7)
        np.testing.assert_allclose(result, expected, rtol=0, atol=TOL)

    def test_uniform_bin_indices_match_searchsorted(self, reference):
        values, edges = binning_inputs(3)
        result = reference.uniform_bin_indices(values, edges)
        expected = np.clip(
            np.searchsorted(edges, values, side="right") - 1, 0, edges.size - 2
        )
        np.testing.assert_array_equal(result, expected)
        assert result.dtype == np.intp

    def test_weighted_bincount_matches_numpy(self, reference):
        gen = np.random.default_rng(5)
        keys = gen.integers(0, 37, 1000)
        weights = gen.normal(size=1000)
        result = reference.weighted_bincount(keys, weights, 50)
        np.testing.assert_array_equal(
            result, np.bincount(keys, weights=weights, minlength=50)
        )

    def test_smooth_rows_matches_convolve_reference(self, reference):
        gen = np.random.default_rng(7)
        rows = gen.random((6, 33)) + 0.01
        rows[3] = 0.0  # degenerate row: returned unsmoothed
        widths = np.full(33, 1.0 / 33)
        result = reference.smooth_rows(rows, widths, 5)
        expected = smooth_rows_reference(rows, widths, 5)
        np.testing.assert_allclose(result, expected, rtol=0, atol=TOL)
        np.testing.assert_array_equal(result[3], rows[3])

    def test_weighted_dot_matches_loop(self, reference):
        gen = np.random.default_rng(9)
        weights = gen.random(101)
        density = gen.random(101)
        density[::7] = 0.0
        matrix = gen.normal(size=(101, 12))
        result = reference.weighted_dot(weights, density, matrix)
        expected = np.array([
            sum(weights[g] * density[g] * matrix[g, c] for g in range(101))
            for c in range(12)
        ])
        np.testing.assert_allclose(result, expected, rtol=TOL, atol=TOL)

    def test_partition_accepted_scatters_and_splits(self, reference):
        gen = np.random.default_rng(13)
        solutions = np.zeros((10, 4))
        rows = np.array([9, 2, 5, 0, 7])
        candidates = gen.normal(size=(5, 4))
        accepted = np.array([True, False, True, True, False])
        accepted_rows, pending_rows = reference.partition_accepted(
            solutions, rows, candidates, accepted
        )
        np.testing.assert_array_equal(accepted_rows, [9, 5, 0])
        np.testing.assert_array_equal(pending_rows, [2, 7])
        np.testing.assert_array_equal(solutions[9], candidates[0])
        np.testing.assert_array_equal(solutions[5], candidates[2])
        np.testing.assert_array_equal(solutions[0], candidates[3])
        np.testing.assert_array_equal(solutions[[2, 7]], 0.0)

    def test_batch_objectives_match_loop(self, reference):
        gen = np.random.default_rng(17)
        factor = gen.normal(size=(10, 8))
        hessian = factor.T @ factor + np.eye(8)
        solutions = gen.normal(size=(6, 8))
        gradients = gen.normal(size=(6, 8))
        result = reference.batch_objectives(solutions, hessian, gradients)
        expected = np.array([
            0.5 * x @ hessian @ x + g @ x
            for x, g in zip(solutions, gradients)
        ])
        np.testing.assert_allclose(result, expected, rtol=TOL, atol=TOL)


# ---------------------------------------------------------------------------
# numba backend vs the numpy reference.
# ---------------------------------------------------------------------------


class TestCompiledMatchesReference:
    @pytest.mark.parametrize("transition_range", [(0.05, 0.4), (0.7, 0.95)])
    def test_smooth_volume(self, reference, compiled, transition_range):
        inputs = volume_inputs(21, transition_range=transition_range)
        expected = reference.smooth_volume_into(
            *inputs, 1.7, np.empty_like(inputs[0])
        )
        result = compiled.smooth_volume_into(*inputs, 1.7, np.empty_like(inputs[0]))
        np.testing.assert_allclose(result, expected, rtol=0, atol=TOL)

    def test_uniform_bin_indices(self, reference, compiled):
        values, edges = binning_inputs(23)
        np.testing.assert_array_equal(
            compiled.uniform_bin_indices(values, edges),
            reference.uniform_bin_indices(values, edges),
        )

    def test_weighted_bincount(self, reference, compiled):
        gen = np.random.default_rng(25)
        keys = gen.integers(0, 37, 1000)
        weights = gen.normal(size=1000)
        np.testing.assert_allclose(
            compiled.weighted_bincount(keys, weights, 50),
            reference.weighted_bincount(keys, weights, 50),
            rtol=0, atol=TOL,
        )

    def test_smooth_rows(self, reference, compiled):
        gen = np.random.default_rng(27)
        rows = gen.random((6, 33)) + 0.01
        rows[2] = 0.0
        widths = np.full(33, 1.0 / 33)
        np.testing.assert_allclose(
            compiled.smooth_rows(rows, widths, 5),
            reference.smooth_rows(rows, widths, 5),
            rtol=0, atol=TOL,
        )

    def test_weighted_dot(self, reference, compiled):
        gen = np.random.default_rng(29)
        weights = gen.random(101)
        density = gen.random(101)
        density[::5] = 0.0
        matrix = gen.normal(size=(101, 14))
        np.testing.assert_allclose(
            compiled.weighted_dot(weights, density, matrix),
            reference.weighted_dot(weights, density, matrix),
            rtol=TOL, atol=TOL,
        )

    def test_partition_accepted(self, reference, compiled):
        gen = np.random.default_rng(31)
        rows = np.array([4, 1, 6, 0, 3, 8])
        candidates = gen.normal(size=(6, 5))
        accepted = np.array([True, False, True, False, True, True])
        ref_solutions = np.zeros((9, 5))
        cmp_solutions = np.zeros((9, 5))
        ref_acc, ref_pend = reference.partition_accepted(
            ref_solutions, rows, candidates, accepted
        )
        cmp_acc, cmp_pend = compiled.partition_accepted(
            cmp_solutions, rows, candidates, accepted
        )
        np.testing.assert_array_equal(cmp_acc, ref_acc)
        np.testing.assert_array_equal(cmp_pend, ref_pend)
        np.testing.assert_array_equal(cmp_solutions, ref_solutions)

    def test_batch_objectives(self, reference, compiled):
        gen = np.random.default_rng(33)
        factor = gen.normal(size=(12, 9))
        hessian = factor.T @ factor + np.eye(9)
        solutions = gen.normal(size=(7, 9))
        gradients = gen.normal(size=(7, 9))
        np.testing.assert_allclose(
            compiled.batch_objectives(solutions, hessian, gradients),
            reference.batch_objectives(solutions, hessian, gradients),
            rtol=TOL, atol=TOL,
        )


# ---------------------------------------------------------------------------
# End-to-end cross-backend equivalence through the public entry points.
# ---------------------------------------------------------------------------


class TestEndToEnd:
    def _build(self, paper_parameters, measurement_times):
        from repro.cellcycle.kernel import KernelBuilder

        return KernelBuilder(
            paper_parameters, num_cells=1500, phase_bins=40
        ).build(measurement_times, rng=3)

    def test_kernel_builder_explicit_numpy_is_byte_identical(
        self, paper_parameters, measurement_times, pin_table
    ):
        default = self._build(paper_parameters, measurement_times)
        pin_table(numpy_backend)
        explicit = self._build(paper_parameters, measurement_times)
        np.testing.assert_array_equal(explicit.density, default.density)

    def test_kernel_builder_compiled_matches_reference(
        self, paper_parameters, measurement_times, compiled, pin_table
    ):
        pin_table(numpy_backend)
        reference_kernel = self._build(paper_parameters, measurement_times)
        pin_table(compiled)
        compiled_kernel = self._build(paper_parameters, measurement_times)
        np.testing.assert_allclose(
            compiled_kernel.density, reference_kernel.density, rtol=0, atol=TOL
        )

    def test_constraint_assembly_explicit_numpy_is_identical(
        self, basis12, paper_parameters, pin_table
    ):
        from repro.core.constraints import build_constraint_set, default_constraints

        default = build_constraint_set(
            default_constraints(), basis12, paper_parameters
        )
        pin_table(numpy_backend)
        explicit = build_constraint_set(
            default_constraints(), basis12, paper_parameters
        )
        np.testing.assert_array_equal(
            explicit.equality_matrix, default.equality_matrix
        )
        np.testing.assert_array_equal(
            explicit.equality_vector, default.equality_vector
        )

    def test_constraint_assembly_compiled_matches_reference(
        self, basis12, paper_parameters, compiled, pin_table
    ):
        from repro.core.constraints import build_constraint_set, default_constraints

        pin_table(numpy_backend)
        reference_set = build_constraint_set(
            default_constraints(), basis12, paper_parameters
        )
        pin_table(compiled)
        compiled_set = build_constraint_set(
            default_constraints(), basis12, paper_parameters
        )
        np.testing.assert_allclose(
            compiled_set.equality_matrix, reference_set.equality_matrix,
            rtol=0, atol=TOL,
        )
        np.testing.assert_allclose(
            compiled_set.equality_vector, reference_set.equality_vector,
            rtol=0, atol=TOL,
        )

    def _batch_workspace(self, seed=41, n=10):
        from repro.numerics.qp import QPWorkspace, QuadraticProgram

        gen = np.random.default_rng(seed)
        factor = gen.normal(size=(n + 4, n))
        program = QuadraticProgram(
            hessian=factor.T @ factor + 0.5 * np.eye(n),
            gradient=np.zeros(n),
            eq_matrix=gen.normal(size=(2, n)),
            eq_vector=np.zeros(2),
            ineq_matrix=np.eye(n),
            ineq_vector=np.zeros(n),
        )
        gradients = gen.normal(size=(25, n))
        return QPWorkspace(program), gradients

    def test_solve_batch_explicit_numpy_is_identical(self, pin_table):
        workspace, gradients = self._batch_workspace()
        default = workspace.solve_batch(gradients)
        pin_table(numpy_backend)
        explicit = workspace.solve_batch(gradients)
        np.testing.assert_array_equal(explicit.x, default.x)
        np.testing.assert_array_equal(explicit.objectives, default.objectives)
        assert explicit.active_sets == default.active_sets

    def test_solve_batch_compiled_matches_reference(self, compiled, pin_table):
        workspace, gradients = self._batch_workspace()
        pin_table(numpy_backend)
        reference_batch = workspace.solve_batch(gradients)
        pin_table(compiled)
        compiled_batch = workspace.solve_batch(gradients)
        np.testing.assert_allclose(
            compiled_batch.x, reference_batch.x, rtol=0, atol=TOL
        )
        np.testing.assert_allclose(
            compiled_batch.objectives, reference_batch.objectives,
            rtol=TOL, atol=TOL,
        )
        assert compiled_batch.active_sets == reference_batch.active_sets
