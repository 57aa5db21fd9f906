"""The numpy kernels of ``repro.backends`` against naive references.

Each hot-path kernel is checked against an independent straightforward
implementation written here (``np.where`` volume evaluation, per-row
``np.convolve`` smoothing, ``searchsorted`` binning, plain loops), so the
kernels cannot silently drift from their documented semantics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import backends

TOL = 1e-12


@pytest.fixture(scope="module")
def reference():
    """The kernel module under test."""
    return backends


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
# The kernels vs the naive implementations.
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

    @pytest.mark.parametrize(
        "transition_range", [(1.5, 2.0), (0.0, 0.0)], ids=["all-early", "all-late"]
    )
    def test_smooth_volume_single_piece_inputs(self, reference, transition_range):
        """No minority piece to patch: the fill pass alone is the answer."""
        inputs = volume_inputs(19, transition_range=transition_range)
        out = np.empty_like(inputs[0])
        result = reference.smooth_volume_into(*inputs, 0.9, out)
        expected = volume_where_reference(*inputs, 0.9)
        np.testing.assert_allclose(result, expected, rtol=0, atol=TOL)

    @pytest.mark.parametrize("verdict", [True, False], ids=["all-accepted", "none-accepted"])
    def test_partition_accepted_uniform_verdicts(self, reference, verdict):
        solutions = np.zeros((6, 3))
        rows = np.array([4, 1, 3])
        candidates = np.arange(9.0).reshape(3, 3) + 1.0
        accepted = np.full(3, verdict)
        accepted_rows, pending_rows = reference.partition_accepted(
            solutions, rows, candidates, accepted
        )
        if verdict:
            np.testing.assert_array_equal(accepted_rows, rows)
            assert pending_rows.size == 0
            np.testing.assert_array_equal(solutions[rows], candidates)
        else:
            assert accepted_rows.size == 0
            np.testing.assert_array_equal(pending_rows, rows)
            np.testing.assert_array_equal(solutions, 0.0)

    def test_weighted_bincount_of_no_keys_is_zero_buckets(self, reference):
        result = reference.weighted_bincount(
            np.zeros(0, dtype=np.intp), np.zeros(0), 12
        )
        np.testing.assert_array_equal(result, np.zeros(12))

    def test_smooth_rows_window_one_only_renormalises(self, reference):
        gen = np.random.default_rng(23)
        rows = gen.random((4, 17)) + 0.01
        widths = np.full(17, 0.5)
        result = reference.smooth_rows(rows, widths, 1)
        expected = rows / (rows @ widths)[:, None]
        np.testing.assert_allclose(result, expected, rtol=0, atol=TOL)


def test_active_backend_is_the_kernel_module():
    """``perfbench/run.py`` records ``active_backend().name`` as its kernel backend."""
    assert backends.active_backend() is backends
    assert backends.active_backend().name == "numpy"
