"""The numpy kernels of the hot inner loops.

Seven pure functions: the fused Horner volume evaluation and the binning,
bincount and row-smoothing passes of the kernel build, the quadrature
reduction of constraint assembly, and the scatter and objective passes of
the batched QP solve.  Call sites import them directly.
"""

from __future__ import annotations

import sys
from types import ModuleType

import numpy as np

name = "numpy"


def active_backend() -> ModuleType:
    """This module; ``perfbench/run.py`` records its ``name`` as ``kernel_backend``."""
    return sys.modules[__name__]


def smooth_volume_into(
    phi: np.ndarray, transition: np.ndarray, cell_indices: np.ndarray,
    late_base: np.ndarray, linear: np.ndarray, quad: np.ndarray, cubic: np.ndarray,
    v0: float, out: np.ndarray,
) -> np.ndarray:
    """Fused piecewise-Horner volume evaluation (eq. 11) into ``out``.

    ``0.4 + linear phi + quad phi^2 + cubic phi^3`` before each pair's cell
    transition phase, ``late_base + linear phi`` after it, times ``v0``.  The
    majority piece fills the buffer; the minority is patched in by mask.
    """
    early_mask = phi < transition[cell_indices]
    num_early = int(np.count_nonzero(early_mask))
    if 2 * num_early <= phi.size:
        # Late-dominant (e.g. a culture past its first division wave):
        # the linear piece fills the buffer, the cubic minority is
        # patched in through the mask.
        np.take(linear, cell_indices, out=out)
        out *= phi
        out += late_base[cell_indices]
        if num_early:
            indices = cell_indices[early_mask]
            early_phi = phi[early_mask]
            early = cubic[indices] * early_phi
            early += quad[indices]
            early *= early_phi
            early += linear[indices]
            early *= early_phi
            early += 0.4
            out[early_mask] = early
    else:
        np.take(cubic, cell_indices, out=out)
        out *= phi
        out += quad[cell_indices]
        out *= phi
        out += linear[cell_indices]
        out *= phi
        out += 0.4
        if num_early < phi.size:
            late_mask = ~early_mask
            indices = cell_indices[late_mask]
            late = linear[indices] * phi[late_mask]
            late += late_base[indices]
            out[late_mask] = late
    out *= v0
    return out


def uniform_bin_indices(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Bin index (``intp``) of each value in a uniform-edge grid.

    Matches ``searchsorted(edges, values, "right") - 1`` clipped to the valid
    range, via direct index arithmetic with a +/-1 boundary fix-up.
    """
    num_bins = edges.size - 1
    scale = num_bins / (edges[-1] - edges[0])
    bins = ((values - edges[0]) * scale).astype(np.intp)
    np.clip(bins, 0, num_bins - 1, out=bins)
    bins[values < edges[bins]] -= 1
    fixable = bins < num_bins - 1
    bins[fixable & (values >= edges[bins + 1])] += 1
    return bins


def weighted_bincount(keys: np.ndarray, weights: np.ndarray, minlength: int) -> np.ndarray:
    """Sum ``weights`` into ``minlength`` buckets addressed by ``keys``."""
    return np.bincount(keys, weights=weights, minlength=int(minlength))


def smooth_rows(rows: np.ndarray, widths: np.ndarray, window: int) -> np.ndarray:
    """Edge-padded moving average of each kernel row, renormalised.

    Each smoothed row is rescaled to unit integral against ``widths``; rows
    whose smoothed integral is not positive are returned unsmoothed.
    """
    half = window // 2
    padded = np.pad(rows, ((0, 0), (half, half)), mode="edge")
    cumulative = np.cumsum(padded, axis=1)
    smoothed = np.empty_like(rows)
    smoothed[:, 0] = cumulative[:, window - 1]
    smoothed[:, 1:] = cumulative[:, window:] - cumulative[:, : rows.shape[1] - 1]
    smoothed /= window
    integrals = smoothed @ widths
    positive = integrals > 0
    smoothed[positive] /= integrals[positive, None]
    smoothed[~positive] = rows[~positive]
    return smoothed


def weighted_dot(weights: np.ndarray, density: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Quadrature reduction ``(weights * density) @ matrix`` per basis column."""
    return (weights * density) @ matrix


def partition_accepted(
    solutions: np.ndarray, rows: np.ndarray, candidates: np.ndarray, accepted: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Scatter accepted batch candidates into ``solutions`` at their rows.

    Returns ``(accepted_rows, pending_rows)``, both in input order.
    """
    accepted_rows = rows[accepted]
    if accepted_rows.size:
        solutions[accepted_rows] = candidates[accepted]
    return accepted_rows, rows[~accepted]


def batch_objectives(
    solutions: np.ndarray, hessian: np.ndarray, gradients: np.ndarray
) -> np.ndarray:
    """Objective ``0.5 x^T H x + g^T x`` of each stacked solution row."""
    hx = solutions @ hessian
    objectives = 0.5 * np.einsum("bi,bi->b", solutions, hx)
    objectives += np.einsum("bi,bi->b", gradients, solutions)
    return objectives
