"""Property tests of GCV selection over a measurement matrix.

``generalized_cross_validation_batch`` and the one-column
``generalized_cross_validation`` score with the same tensor pass, so on any
measurement matrix and candidate grid the batch must pick exactly the
lambda each column picks alone, with scores equal to 1e-12 relative.
Candidates whose pencil is indefinite are scored by the dense smoother on
both paths.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.lambda_selection as selection
from repro.core.basis import SplineBasis
from repro.core.forward import ForwardModel
from repro.core.lambda_selection import (
    _gcv_eig_pieces,
    _gcv_scores_dense,
    generalized_cross_validation,
    generalized_cross_validation_batch,
)
from repro.core.problem import DeconvolutionProblem


@pytest.fixture(scope="module")
def forwards(small_kernel):
    return {size: ForwardModel(small_kernel, SplineBasis(num_basis=size)) for size in (8, 12)}


def make_problem(forward, rng) -> DeconvolutionProblem:
    sigma = rng.uniform(0.05, 0.5, size=forward.num_measurements)
    return DeconvolutionProblem(forward, np.zeros(forward.num_measurements), sigma=sigma)


def assert_batch_matches_columns(problem, matrix, grid):
    batch = generalized_cross_validation_batch(problem, matrix, grid)
    assert len(batch) == matrix.shape[1]
    for column, chosen in enumerate(batch):
        alone = generalized_cross_validation(problem.with_measurements(matrix[:, column]), grid)
        assert chosen.best_lambda == alone.best_lambda
        assert chosen.scores.keys() == alone.scores.keys()
        for lam, score in alone.scores.items():
            assert chosen.scores[lam] == pytest.approx(score, rel=1e-12, abs=0.0)
    return batch


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    size=st.sampled_from([8, 12]),
    columns=st.integers(min_value=1, max_value=6),
    exponents=st.lists(
        st.integers(min_value=-14, max_value=4), min_size=1, max_size=8, unique=True
    ),
    with_zero=st.booleans(),
)
def test_batch_picks_each_columns_own_lambda(forwards, seed, size, columns, exponents, with_zero):
    rng = np.random.default_rng(seed)
    problem = make_problem(forwards[size], rng)
    # Half-decade candidates, so no two are near-ties by construction.
    grid = 10.0 ** (np.array(sorted(exponents), dtype=float) / 2.0)
    if with_zero:
        grid = np.concatenate([[0.0], grid])
    scale = rng.uniform(0.1, 10.0, size=columns)
    matrix = rng.normal(size=(problem.measurements.size, columns)) * scale
    assert_batch_matches_columns(problem, matrix, grid)


@pytest.mark.parametrize("grid", [[1e-3], [0.0], [0.0, 1e-4, 1e-1]], ids=["one", "zero", "zero-grid"])
def test_one_point_and_zero_grids(forwards, rng, grid):
    problem = make_problem(forwards[12], rng)
    matrix = rng.normal(size=(problem.measurements.size, 4))
    batch = assert_batch_matches_columns(problem, matrix, np.array(grid))
    for chosen in batch:
        assert set(chosen.scores) == set(grid)
        assert all(np.isfinite(score) for score in chosen.scores.values())


def test_indefinite_candidate_is_scored_dense(forwards, rng, monkeypatch):
    problem = make_problem(forwards[12], rng)
    mu = _gcv_eig_pieces(problem)[0]
    # 1 + lam * mu < 0 on the stiffest mode: the pencil is indefinite there.
    indefinite = -10.0 / float(mu.max())
    grid = np.array([indefinite, 1e-3, 1e-1])
    matrix = rng.normal(size=(problem.measurements.size, 3))
    calls = []
    dense = selection._gcv_scores_dense

    def counting(problem, lambdas):
        calls.append(tuple(lambdas))
        return dense(problem, lambdas)

    monkeypatch.setattr(selection, "_gcv_scores_dense", counting)
    batch = assert_batch_matches_columns(problem, matrix, grid)
    # Only the indefinite candidate goes dense: once per column per path.
    assert calls == [(indefinite,)] * 6
    for column, chosen in enumerate(batch):
        sibling = problem.with_measurements(matrix[:, column])
        expected = _gcv_scores_dense(sibling, np.array([indefinite]))[indefinite]
        assert chosen.scores[indefinite] == expected


def test_long_grid_scores_in_bounded_memory(forwards, rng):
    """A grid far longer than one candidate block costs time, not memory.

    The batched matmul runs ``_GCV_CHUNK`` candidates at a time, so the peak
    allocation stays far below one ``(L, Nm, S)`` temporary (it is about
    the ``(L, S)`` score table itself), and every
    candidate scores as it does in a one-point grid.
    """
    problem = make_problem(forwards[12], rng)
    columns = 64
    matrix = rng.normal(size=(problem.measurements.size, columns))
    grid = np.logspace(-8, 3, 4000)
    selection._gcv_score_table(problem, matrix, grid[:1])  # cache the eig pieces
    tracemalloc.start()
    try:
        table = selection._gcv_score_table(problem, matrix, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    one_temporary = grid.size * problem.measurements.size * columns * 8
    assert peak < one_temporary / 4
    for row in (0, 17, 1999, 3999):
        alone = selection._gcv_score_table(problem, matrix, grid[row : row + 1])[0]
        np.testing.assert_allclose(table[row], alone, rtol=1e-12, atol=0.0)
