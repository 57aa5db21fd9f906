"""Numba-compiled implementations of the hot-path kernels.

Importing this module requires the optional ``numba`` dependency (install
the package with the ``[compiled]`` extra); ``repro.backends`` catches the
``ImportError`` and selects the numpy reference, so a plain install
never pays for — or breaks on — the compiled path.

Every kernel is an ``@njit(cache=True)`` loop nest performing *the same
floating-point operations in the same order* as the numpy reference
(``repro.backends.numpy_backend``) wherever the reference's order is
sequential, so most kernels are bit-identical; the reductions that the
reference delegates to BLAS (``weighted_dot``, row integrals,
``batch_objectives``) agree to a few ulp.  ``cache=True`` persists the
compiled machine code on disk (honouring ``NUMBA_CACHE_DIR``), so warm
processes — and CI runs restoring the cache directory — skip compilation.
"""

from __future__ import annotations

import numpy as np
from numba import njit

name = "numba"


@njit(cache=True)
def _smooth_volume_into(phi, transition, cell_indices, late_base, linear, quad, cubic, v0, out):
    for i in range(phi.shape[0]):
        cell = cell_indices[i]
        p = phi[i]
        if p < transition[cell]:
            value = ((cubic[cell] * p + quad[cell]) * p + linear[cell]) * p + 0.4
        else:
            value = linear[cell] * p + late_base[cell]
        out[i] = value * v0
    return out


@njit(cache=True)
def _uniform_bin_indices(values, edges):
    num_bins = edges.shape[0] - 1
    scale = num_bins / (edges[num_bins] - edges[0])
    origin = edges[0]
    bins = np.empty(values.shape[0], dtype=np.intp)
    for i in range(values.shape[0]):
        index = np.intp((values[i] - origin) * scale)
        if index < 0:
            index = 0
        elif index > num_bins - 1:
            index = num_bins - 1
        if values[i] < edges[index]:
            index -= 1
        elif index < num_bins - 1 and values[i] >= edges[index + 1]:
            index += 1
        bins[i] = index
    return bins


@njit(cache=True)
def _weighted_bincount(keys, weights, minlength):
    out = np.zeros(minlength, dtype=np.float64)
    for i in range(keys.shape[0]):
        out[keys[i]] += weights[i]
    return out


@njit(cache=True)
def _smooth_rows(rows, widths, window):
    num_rows, num_bins = rows.shape
    half = window // 2
    padded_size = num_bins + 2 * half
    cumulative = np.empty(padded_size, dtype=np.float64)
    smoothed = np.empty_like(rows)
    for r in range(num_rows):
        # Edge-padded cumulative sum of the row (sequential, matching the
        # reference's np.cumsum exactly).
        total = 0.0
        for j in range(padded_size):
            if j < half:
                value = rows[r, 0]
            elif j < half + num_bins:
                value = rows[r, j - half]
            else:
                value = rows[r, num_bins - 1]
            total += value
            cumulative[j] = total
        smoothed[r, 0] = cumulative[window - 1] / window
        for j in range(1, num_bins):
            smoothed[r, j] = (cumulative[window + j - 1] - cumulative[j - 1]) / window
        integral = 0.0
        for j in range(num_bins):
            integral += smoothed[r, j] * widths[j]
        if integral > 0.0:
            for j in range(num_bins):
                smoothed[r, j] /= integral
        else:
            for j in range(num_bins):
                smoothed[r, j] = rows[r, j]
    return smoothed


@njit(cache=True)
def _weighted_dot(weights, density, matrix):
    grid_size, num_columns = matrix.shape
    out = np.zeros(num_columns, dtype=np.float64)
    for i in range(grid_size):
        product = weights[i] * density[i]
        if product != 0.0:
            for j in range(num_columns):
                out[j] += product * matrix[i, j]
    return out


@njit(cache=True)
def _scatter_accepted(solutions, rows, candidates, accepted):
    for position in range(rows.shape[0]):
        if accepted[position]:
            row = rows[position]
            for j in range(candidates.shape[1]):
                solutions[row, j] = candidates[position, j]


@njit(cache=True)
def _batch_objectives(solutions, hessian, gradients):
    num_problems, n = solutions.shape
    out = np.empty(num_problems, dtype=np.float64)
    for r in range(num_problems):
        quadratic = 0.0
        linear = 0.0
        for i in range(n):
            row_product = 0.0
            for j in range(n):
                row_product += hessian[i, j] * solutions[r, j]
            quadratic += solutions[r, i] * row_product
            linear += gradients[r, i] * solutions[r, i]
        out[r] = 0.5 * quadratic + linear
    return out


def smooth_volume_into(phi, transition, cell_indices, late_base, linear, quad, cubic, v0, out):
    """Single fused Horner loop over the pairs."""
    return _smooth_volume_into(
        phi, transition, cell_indices, late_base, linear, quad, cubic, float(v0), out
    )


def weighted_bincount(keys, weights, minlength):
    """Single accumulation loop in key-occurrence order."""
    return _weighted_bincount(keys, weights, int(minlength))


def smooth_rows(rows, widths, window):
    """Per-row sliding-sum smoothing without the padded copies."""
    return _smooth_rows(rows, widths, int(window))


def weighted_dot(weights, density, matrix):
    """Row-major reduction skipping masked-out (zero) grid points."""
    return _weighted_dot(weights, density, np.ascontiguousarray(matrix))


def partition_accepted(solutions, rows, candidates, accepted):
    """Compiled scatter of the accepted candidate rows."""
    _scatter_accepted(solutions, rows, candidates, accepted)
    return rows[accepted], rows[~accepted]


uniform_bin_indices = _uniform_bin_indices
batch_objectives = _batch_objectives
