"""Argument-validation helpers.

These helpers normalise inputs to NumPy arrays and raise informative
``ValueError`` / ``TypeError`` exceptions with the offending argument name, so
the public API fails early and clearly instead of deep inside a solver.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


class InvalidRequest(ValueError):
    """A request that can never succeed as posed: the caller's fault.

    Raised where a fit's inputs are rejected (service admission, the
    population cap).  The service answers it without counting it against a
    shard's circuit breaker, and the network edge maps it to HTTP 400 like
    any ``ValueError``.
    """


def check_positive(value: float, name: str, *, strict: bool = True) -> float:
    """Validate that ``value`` is a positive (or non-negative) finite scalar.

    Parameters
    ----------
    value:
        Scalar to validate.
    name:
        Argument name used in the error message.
    strict:
        If ``True`` (default) require ``value > 0``; otherwise ``value >= 0``.

    Returns
    -------
    float
        The validated value as a Python float.
    """
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if strict and value <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    if not strict and value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_in_range(
    value: float,
    name: str,
    low: float,
    high: float,
    *,
    inclusive: bool = True,
) -> float:
    """Validate that a scalar lies inside ``[low, high]`` (or ``(low, high)``)."""
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if inclusive:
        if not (low <= value <= high):
            raise ValueError(f"{name} must be in [{low}, {high}], got {value!r}")
    else:
        if not (low < value < high):
            raise ValueError(f"{name} must be in ({low}, {high}), got {value!r}")
    return value


def check_probability(value: float, name: str) -> float:
    """Validate that ``value`` is a probability in ``[0, 1]``."""
    return check_in_range(value, name, 0.0, 1.0)


def ensure_1d(values: Sequence[float] | np.ndarray, name: str) -> np.ndarray:
    """Convert ``values`` to a 1-D float array, rejecting other shapes."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must not be empty")
    # The method form skips numpy's Python-level ``np.all`` wrapper, which
    # costs more than the check itself on the per-request solve path.
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def check_lambda_grid(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Validate a lambda-selection grid: 1-D, non-empty, finite and ``>= 0``, like ``lam``."""
    arr = ensure_1d(values, "lambda_grid")
    if (arr < 0.0).any():
        raise ValueError(f"lambda_grid must be >= 0, got {float(arr.min())!r}")
    return arr


def ensure_2d(values: Sequence[Sequence[float]] | np.ndarray, name: str) -> np.ndarray:
    """Convert ``values`` to a 2-D float array, rejecting other shapes."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must not be empty")
    # The method form skips numpy's Python-level ``np.all`` wrapper, which
    # costs more than the check itself on the per-request solve path.
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def check_sorted(values: Sequence[float] | np.ndarray, name: str, *, strict: bool = True) -> np.ndarray:
    """Validate that a 1-D array is sorted in (strictly) increasing order."""
    arr = ensure_1d(values, name)
    diffs = np.diff(arr)
    if strict and np.any(diffs <= 0):
        raise ValueError(f"{name} must be strictly increasing")
    if not strict and np.any(diffs < 0):
        raise ValueError(f"{name} must be non-decreasing")
    return arr
