"""Selection of the smoothing parameter ``lambda``.

The paper selects ``lambda`` by cross-validation (following Craven & Wahba).
Two selectors are provided:

* **k-fold cross-validation** — measurements are split into folds; for each
  candidate ``lambda`` the constrained problem is solved on the training folds
  and scored by the weighted squared error on the held-out measurements.  The
  scorer factors each fold *once*: a generalised eigendecomposition
  of the pencil ``(Omega, A_tr^T W A_tr + c Omega)`` (with the shift ``c``
  inside the lambda grid so the factored matrix is a well-conditioned actual
  Hessian) turns every candidate's training Hessian into the diagonal
  ``2 (1 + (lambda - c) mu)`` in the eigenbasis.  Each candidate is then an
  ``O(Nc)`` diagonal solve plus a tiny KKT correction for the equality rows;
  the constrained active-set solver only runs for the candidates whose
  unconstrained optimum violates an inequality (and those solves reuse
  per-candidate cached workspaces and warm starts).  The fold-hoisted,
  warm-started per-(fold, lambda) QP sweep is the automatic fallback for
  degenerate pencils.
* **generalised cross-validation (GCV)** — the classical closed-form score of
  the *unconstrained* smoother matrix
  ``S(lambda) = A (A^T W A + lambda Omega)^-1 A^T W``; inequality constraints
  are ignored in the score (the standard approximation), which is accurate
  whenever few positivity constraints are active at the optimum.  Instead of
  materialising the ``Nm x Nm`` smoother for every candidate, a one-time
  generalised eigendecomposition of ``(Omega, A^T W A + ridge I)`` reduces
  each candidate's trace and residual to ``O(Nm * Nc)`` vector work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.problem import DeconvolutionProblem
from repro.numerics.qp import (
    QPResult,
    QPWorkspace,
    QuadraticProgram,
    kkt_solve_diagonal_batch,
    solve_qp,
)
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_lambda_grid, ensure_1d


@dataclass
class LambdaSelectionResult:
    """Outcome of a lambda search.

    Attributes
    ----------
    best_lambda:
        The selected smoothing parameter.
    scores:
        Mapping from candidate lambda to its selection score (lower is better).
    method:
        Name of the selection method used.
    """

    best_lambda: float
    scores: dict[float, float] = field(default_factory=dict)
    method: str = "gcv"


#: The selection methods :func:`select_lambda` knows.  The service checks a
#: request's method against it at admission, so a typo fails alone instead
#: of failing its batch at solve time.
LAMBDA_METHODS = ("gcv", "kfold")

#: The grid for the default arguments, built once and shared read-only.
_DEFAULT_GRID = np.logspace(-6.0, 2.0, 13)
_DEFAULT_GRID.flags.writeable = False


def default_lambda_grid(num: int = 13, low: float = 1e-6, high: float = 1e2) -> np.ndarray:
    """Logarithmically spaced candidate grid for ``lambda``.

    Parameters
    ----------
    num:
        Number of candidates (at least 2).
    low, high:
        Smallest and largest candidate, ``0 < low < high``.

    Returns
    -------
    numpy.ndarray
        The candidates in ascending order, shape ``(num,)``.  The default
        arguments return one shared read-only array; copy it before writing.
    """
    if num < 2:
        raise ValueError("num must be >= 2")
    if not (low > 0 and high > low):
        raise ValueError("require 0 < low < high")
    if num == 13 and low == 1e-6 and high == 1e2:
        return _DEFAULT_GRID
    return np.logspace(np.log10(low), np.log10(high), int(num))


#: Candidates per batched matmul of :func:`_gcv_score_table`.
_GCV_CHUNK = 16


def _gcv_scores_dense(
    problem: DeconvolutionProblem, lambdas: np.ndarray
) -> dict[float, float]:
    """Reference GCV scores via the dense ``Nm x Nm`` smoother matrix.

    Kept as the fallback (and cross-check) for :func:`_gcv_scores_eig`; cost
    grows with ``Nm^2`` per candidate.
    """
    design = problem.forward.design_matrix
    weights = 1.0 / problem.sigma**2
    sqrt_w = np.sqrt(weights)
    weighted_design = design * weights[:, None]
    gram = design.T @ weighted_design
    num_measurements = problem.measurements.size

    scores: dict[float, float] = {}
    for lam in lambdas:
        regularised = gram + float(lam) * problem.penalty
        regularised = regularised + problem.ridge * np.eye(problem.num_coefficients)
        try:
            solve = np.linalg.solve(regularised, weighted_design.T)
        except np.linalg.LinAlgError:
            solve = np.linalg.pinv(regularised) @ weighted_design.T
        smoother = design @ solve
        residual = problem.measurements - smoother @ problem.measurements
        trace_term = num_measurements - float(np.trace(smoother))
        if trace_term <= 1e-9:
            scores[float(lam)] = np.inf
            continue
        numerator = num_measurements * float(np.sum((sqrt_w * residual) ** 2))
        scores[float(lam)] = numerator / trace_term**2
    return scores


def _gcv_eig_pieces(
    problem: DeconvolutionProblem,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Measurement-independent pieces of the eigendecomposition GCV score.

    Cached on the problem family (see
    :meth:`~repro.core.problem.DeconvolutionProblem.selection_cache`), so a
    multi-species batch pays for the ``eigh`` once instead of once per
    species.
    """
    from scipy.linalg import eigh

    def build() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        design = problem.forward.design_matrix
        gram = problem.gram
        regulariser = gram + problem.ridge * np.eye(problem.num_coefficients)
        mu, vectors = eigh(problem.penalty, regulariser)
        # Per-mode pieces: trace contributions and reconstruction modes.
        trace_weights = np.einsum("ij,ij->j", vectors, gram @ vectors)
        modes = design @ vectors
        return mu, vectors, trace_weights, modes

    return problem.selection_cache("gcv_eig", build)


def _gcv_score_table(
    problem: DeconvolutionProblem, matrix: np.ndarray, lambdas: np.ndarray
) -> np.ndarray:
    """GCV scores of every candidate for every column, in one tensor pass.

    With ``M = A^T W A + ridge I`` and the pencil ``Omega v = mu M v``
    (eigenvectors ``V`` normalised so ``V^T M V = I``), the smoother for any
    ``lambda`` is ``S = A V diag(1 / (1 + lambda mu)) V^T A^T W``.  The shrink
    factors of all ``L`` candidates form one ``(L, Nc)`` array; the trace
    terms are one GEMV against the per-mode trace weights and the fitted
    values of every candidate and column one batched matmul, so a grid costs
    ``O(L * Nm * Nc * S)`` vector work and no per-candidate Python loop.  The
    matmul runs over blocks of ``_GCV_CHUNK`` candidates, which bounds its
    temporaries at ``O(_GCV_CHUNK * max(Nm, Nc) * S)`` however long the grid
    (the default 13-point grid is one block).  A
    candidate whose pencil is numerically indefinite (some ``1 + lambda mu``
    not positive) is scored by the dense smoother instead, column by column.

    Parameters
    ----------
    problem:
        Template problem of the family (its measurements are ignored);
        supplies the cached eigendecomposition pieces and weights.
    matrix:
        Measurement vectors, shape ``(Nm, S)``.
    lambdas:
        Candidate smoothing parameters, shape ``(L,)``.

    Returns
    -------
    numpy.ndarray
        Scores, shape ``(L, S)``; ``inf`` where ``trace(I - S) <= 1e-9``.

    Raises
    ------
    numpy.linalg.LinAlgError
        When ``M`` is not positive definite (callers fall back to the dense
        path).
    """
    mu, vectors, trace_weights, modes = _gcv_eig_pieces(problem)
    weights = 1.0 / problem.sigma**2
    num_measurements, num_columns = matrix.shape
    scores = np.empty((lambdas.size, num_columns))
    denominators = 1.0 + lambdas[:, None] * mu[None, :]
    definite = np.all(denominators > 0.0, axis=1)
    rows = np.flatnonzero(definite)
    shrink = 1.0 / denominators[rows]
    trace_terms = num_measurements - shrink @ trace_weights
    projections = vectors.T @ (problem.weighted_design.T @ matrix)
    for start in range(0, rows.size, _GCV_CHUNK):
        chunk = slice(start, start + _GCV_CHUNK)
        fitted = modes @ (shrink[chunk, :, None] * projections[None, :, :])
        numerators = num_measurements * np.sum(weights[:, None] * (matrix - fitted) ** 2, axis=1)
        traces = trace_terms[chunk, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            scores[rows[chunk]] = np.where(traces > 1e-9, numerators / traces**2, np.inf)
    for row in np.flatnonzero(~definite).tolist():
        lam = np.array([float(lambdas[row])])
        scores[row] = [
            _gcv_scores_dense(problem.with_measurements(matrix[:, column]), lam)[float(lam[0])]
            for column in range(num_columns)
        ]
    return scores


def _gcv_scores_eig(
    problem: DeconvolutionProblem, lambdas: np.ndarray
) -> dict[float, float]:
    """GCV scores of the problem's own measurements: a one-column
    :func:`_gcv_score_table`.  Raises ``LinAlgError`` when the
    eigendecomposition is degenerate (caller falls back to the dense path).
    """
    scores = _gcv_score_table(problem, problem.measurements[:, None], lambdas)[:, 0]
    return {float(lam): float(score) for lam, score in zip(lambdas, scores)}


def generalized_cross_validation_batch(
    problem: DeconvolutionProblem,
    measurement_matrix: np.ndarray,
    lambdas: np.ndarray,
) -> list[LambdaSelectionResult]:
    """GCV-select a lambda for every column of a measurement matrix at once.

    Every column is scored by the same tensor pass
    (:func:`_gcv_score_table`) that :func:`generalized_cross_validation`
    runs on one column: one projection GEMM, one GEMV for the trace terms
    and one batched matmul per block of candidates for the fitted values,
    off the family's shared eigendecomposition.  The code is the same, but the BLAS
    kernels depend on the matrix shape, so a column's scores can differ from
    its one-column scores in the last digits (the tests bound the gap at
    1e-12 relative) and a near-tie on the grid can pick a different lambda.

    Parameters
    ----------
    problem:
        Template problem of the family (measurements are ignored); supplies
        the cached eigendecomposition pieces, weights and design products.
    measurement_matrix:
        One species per column, shape ``(Nm, S)``.
    lambdas:
        Candidate smoothing parameters.

    Returns
    -------
    list[LambdaSelectionResult]
        One selection per column, in column order.  Falls back to the
        per-species scorer when the eigendecomposition is degenerate.
    """
    lambdas = ensure_1d(lambdas, "lambdas")
    matrix = np.asarray(measurement_matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("measurement_matrix must be two-dimensional")
    try:
        score_table = _gcv_score_table(problem, matrix, lambdas)
    except np.linalg.LinAlgError:
        return [
            generalized_cross_validation(problem.with_measurements(matrix[:, column]), lambdas)
            for column in range(matrix.shape[1])
        ]
    candidates = lambdas.tolist()
    selections: list[LambdaSelectionResult] = []
    for column_scores in score_table.T.tolist():
        scores = dict(zip(candidates, column_scores))
        best = min(scores, key=scores.get)
        selections.append(LambdaSelectionResult(best_lambda=best, scores=scores, method="gcv"))
    return selections


def generalized_cross_validation(
    problem: DeconvolutionProblem,
    lambdas: np.ndarray,
) -> LambdaSelectionResult:
    """Score each candidate ``lambda`` with the GCV criterion.

    ``GCV(lambda) = (N * ||W^{1/2}(G - S G)||^2) / trace(I - S)^2`` with the
    unconstrained linear smoother ``S``.  The whole grid is scored from one
    generalised eigendecomposition; the dense smoother build remains as a
    fallback for degenerate Gram matrices.

    Parameters
    ----------
    problem:
        The full deconvolution problem.
    lambdas:
        Candidate smoothing parameters.

    Returns
    -------
    LambdaSelectionResult
        The best candidate plus the per-candidate scores.
    """
    lambdas = ensure_1d(lambdas, "lambdas")
    try:
        scores = _gcv_scores_eig(problem, lambdas)
    except np.linalg.LinAlgError:
        scores = _gcv_scores_dense(problem, lambdas)

    best = min(scores, key=scores.get)
    return LambdaSelectionResult(best_lambda=best, scores=scores, method="gcv")


class _FoldEigState:
    """Measurement-independent eigendecomposition state of one CV fold."""

    __slots__ = (
        "train",
        "test",
        "projector",
        "diagonals",
        "eq_columns",
        "eq_vector",
        "ineq_columns",
        "ineq_vector",
        "test_modes",
        "test_sigma",
        "workspaces",
        "warm_starts",
    )

    def __init__(
        self,
        problem: DeconvolutionProblem,
        train: np.ndarray,
        test: np.ndarray,
        lambdas_descending: np.ndarray,
        shift: float,
    ) -> None:
        from scipy.linalg import eigh

        self.train = train
        self.test = test
        design = problem.forward.design_matrix
        weights = 1.0 / problem.sigma**2
        train_design = design[train]
        train_weighted = train_design * weights[train][:, None]
        gram = train_design.T @ train_weighted
        gram = 0.5 * (gram + gram.T)
        num_coefficients = problem.num_coefficients
        shifted = gram + 0.5 * problem.ridge * np.eye(num_coefficients)
        shifted += shift * problem.penalty
        # Pencil (Omega, A^T W A + ridge/2 + c Omega): the B matrix is the
        # (halved) training Hessian at lambda = c, positive definite and far
        # better conditioned than the rank-deficient fold Gram alone.  In the
        # eigenbasis every candidate's Hessian is diagonal.
        mu, vectors = eigh(problem.penalty, shifted)
        diagonals = 2.0 * (1.0 + (lambdas_descending[:, None] - shift) * mu[None, :])
        if not np.all(diagonals > 0.0) or not np.all(np.isfinite(diagonals)):
            raise np.linalg.LinAlgError("indefinite fold pencil for the lambda grid")
        self.diagonals = diagonals
        # Maps a training measurement vector straight to the eigenbasis
        # gradient: q = -2 projector @ m_train.
        self.projector = vectors.T @ train_weighted.T
        constraint_set = problem.constraint_set
        if constraint_set.has_equalities:
            self.eq_columns = constraint_set.equality_matrix @ vectors
            self.eq_vector = constraint_set.equality_vector
        else:
            self.eq_columns = None
            self.eq_vector = None
        if constraint_set.has_inequalities:
            self.ineq_columns = constraint_set.inequality_matrix @ vectors
            self.ineq_vector = constraint_set.inequality_vector
        else:
            self.ineq_columns = None
            self.ineq_vector = None
        self.test_modes = design[test] @ vectors
        self.test_sigma = problem.sigma[test]
        # Lazy per-candidate fallback state, reused across calls and species.
        self.workspaces: dict[int, QPWorkspace] = {}
        self.warm_starts: dict[int, tuple[np.ndarray, list[int]]] = {}

    def solutions(
        self, train_measurements: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Equality-constrained optima for every candidate, plus feasibility.

        Returns the eigenbasis gradient of the training measurements, the
        solutions ``Y`` (one row per candidate, in the plan's descending
        lambda order) of the training problem *without* its inequality rows,
        and a boolean mask of the candidates whose solution already satisfies
        every inequality (and is therefore the exact constrained optimum).
        """
        gradient = -2.0 * (self.projector @ train_measurements)
        solutions = -gradient[None, :] / self.diagonals
        if self.eq_columns is not None:
            # KKT correction onto the equality rows: a dense solve of one
            # (num_eq x num_eq) system per candidate.
            scaled = self.eq_columns[None, :, :] / self.diagonals[:, None, :]
            schur = scaled @ self.eq_columns.T
            residual = self.eq_vector[None, :] - solutions @ self.eq_columns.T
            multipliers = np.linalg.solve(schur, residual[..., None])[..., 0]
            solutions = solutions + np.einsum("lk,lkc->lc", multipliers, scaled)
        if self.ineq_columns is None:
            feasible = np.ones(solutions.shape[0], dtype=bool)
        else:
            slack = solutions @ self.ineq_columns.T - self.ineq_vector[None, :]
            feasible = slack.min(axis=1) >= -1e-9
        return gradient, solutions, feasible

    def kkt_solutions(
        self, gradient: np.ndarray, candidate_rows: Sequence[int], active: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched working-set KKT solves for a group of candidates.

        Solves, for every candidate index in ``candidate_rows``, the
        eigenbasis training problem with the equality rows plus the
        inequality rows ``active`` pinned, in one stacked
        :func:`~repro.numerics.qp.kkt_solve_diagonal_batch` call (the
        candidate Hessians are diagonal in the fold eigenbasis).

        Parameters
        ----------
        gradient:
            Shared eigenbasis gradient of the training measurements.
        candidate_rows:
            Candidate indices (rows of :attr:`diagonals`) to solve.
        active:
            Inequality rows pinned active for every candidate in the group.

        Returns
        -------
        tuple[numpy.ndarray, numpy.ndarray]
            ``(solutions, ineq_multipliers)`` with one row per candidate.
        """
        pieces = []
        rhs_pieces = []
        num_eq = 0
        if self.eq_columns is not None:
            pieces.append(self.eq_columns)
            rhs_pieces.append(self.eq_vector)
            num_eq = self.eq_columns.shape[0]
        if len(active):
            active_idx = np.asarray(active, dtype=int)
            pieces.append(self.ineq_columns[active_idx])
            rhs_pieces.append(self.ineq_vector[active_idx])
        if pieces:
            columns = np.vstack(pieces)
            rhs = np.concatenate(rhs_pieces)
        else:
            columns = np.zeros((0, self.diagonals.shape[1]))
            rhs = np.zeros(0)
        return kkt_solve_diagonal_batch(
            self.diagonals[np.asarray(candidate_rows, dtype=int)],
            gradient,
            columns,
            rhs,
            num_eq,
        )

    def fallback_workspace(self, index: int) -> QPWorkspace:
        """Cached active-set workspace for one candidate's diagonal Hessian."""
        workspace = self.workspaces.get(index)
        if workspace is None:
            hessian = np.diag(self.diagonals[index])
            workspace = QPWorkspace(
                QuadraticProgram(
                    hessian=hessian,
                    gradient=np.zeros(hessian.shape[0]),
                    eq_matrix=self.eq_columns,
                    eq_vector=self.eq_vector,
                    ineq_matrix=self.ineq_columns,
                    ineq_vector=self.ineq_vector,
                )
            )
            self.workspaces[index] = workspace
        return workspace


class KFoldEigPlan:
    """Shared per-fold factorization plan for k-fold cross-validation.

    The plan holds everything about a ``(fold assignment, lambda grid)``
    cross-validation that does not depend on the measurement values: per-fold
    generalised eigendecompositions, constraint rows and held-out modes in
    the eigenbasis, and the fallback QP workspaces with their warm starts.
    :meth:`score` then evaluates any measurement vector of the same problem
    family — the fast path for multi-species batches, where the plan is built
    once and scored per species.
    """

    def __init__(
        self,
        problem: DeconvolutionProblem,
        lambdas: np.ndarray,
        folds: list[np.ndarray],
        permutation: np.ndarray,
    ) -> None:
        lambdas = np.asarray(lambdas, dtype=float)
        self.sweep_order = np.argsort(lambdas, kind="stable")[::-1]
        self.lambdas_descending = lambdas[self.sweep_order]
        # Shift the pencil to the grid's geometric mean so the factored
        # matrix is an actual (well-conditioned) mid-grid Hessian.
        positive = lambdas[lambdas > 0.0]
        if positive.size:
            self.shift = float(np.exp(np.mean(np.log(positive))))
        else:
            self.shift = 1e-3
        self.folds = [
            _FoldEigState(
                problem,
                np.setdiff1d(permutation, fold),
                fold,
                self.lambdas_descending,
                self.shift,
            )
            for fold in folds
        ]

    def score(self, measurements: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Summed held-out CV scores for one measurement vector.

        Returns ``(totals, valid)`` in the *original* lambda-grid order.
        Candidates whose equality-constrained optimum is feasible are scored
        directly from the diagonal solve; the rest run the active-set solver
        in the eigenbasis, warm-started from the same candidate's previous
        solve (earlier species/call) or the preceding candidate in the sweep.
        """
        num_candidates = self.lambdas_descending.size
        totals = np.zeros(num_candidates)
        valid = np.ones(num_candidates, dtype=bool)
        for fold in self.folds:
            gradient, solutions, feasible = fold.solutions(measurements[fold.train])
            predictions = solutions @ fold.test_modes.T
            residuals = (measurements[fold.test][None, :] - predictions) / fold.test_sigma
            scores = np.einsum("lj,lj->l", residuals, residuals)
            if not np.all(feasible):
                self._solve_infeasible(
                    fold, gradient, solutions, feasible, scores, measurements, valid
                )
            totals += scores
        reordered_totals = np.empty(num_candidates)
        reordered_valid = np.empty(num_candidates, dtype=bool)
        reordered_totals[self.sweep_order] = totals
        reordered_valid[self.sweep_order] = valid
        return reordered_totals, reordered_valid

    def _solve_infeasible(
        self,
        fold: _FoldEigState,
        gradient: np.ndarray,
        solutions: np.ndarray,
        feasible: np.ndarray,
        scores: np.ndarray,
        measurements: np.ndarray,
        valid: np.ndarray,
    ) -> None:
        """Constrained solves for the candidates the fast path cannot score.

        Candidates with a remembered active set from a previous scoring call
        (warm cross-validation, later species of a batch) are first KKT
        verified in stacked groups — one batched diagonal solve per distinct
        active set, across all the lambdas sharing it — and only the
        candidates whose active set actually changed fall through to the
        sequential per-candidate active-set sweep.
        """
        test_values = measurements[fold.test]
        resolved = np.zeros(solutions.shape[0], dtype=bool)
        self._verify_warm_candidates(fold, gradient, feasible, scores, test_values, resolved)
        previous: tuple[np.ndarray, list[int]] | None = None
        for index in range(solutions.shape[0]):
            if feasible[index]:
                # A feasible diagonal solution is also the best warm start
                # for the next infeasible candidate in the sweep.
                previous = (solutions[index], [])
                continue
            if resolved[index]:
                previous = fold.warm_starts[index]
                continue
            warm = fold.warm_starts.get(index, previous)
            warm_x = warm[0] if warm is not None else None
            warm_active = warm[1] if warm is not None else None
            result = fold.fallback_workspace(index).solve(
                gradient, x0=warm_x, active_set=warm_active
            )
            if not (result.converged and self._feasible(fold, result.x)):
                result = self._solve_general(fold, index, gradient, warm_x, warm_active)
            if not result.converged:
                valid[index] = False
                continue
            solution, active = self._refine_with_kkt(fold, gradient, index, result)
            fold.warm_starts[index] = (solution, active)
            previous = (solution, active)
            residual = (test_values - fold.test_modes @ solution) / fold.test_sigma
            scores[index] = float(residual @ residual)

    @staticmethod
    def _verify_warm_candidates(
        fold: _FoldEigState,
        gradient: np.ndarray,
        feasible: np.ndarray,
        scores: np.ndarray,
        test_values: np.ndarray,
        resolved: np.ndarray,
        tol: float = 1e-9,
    ) -> None:
        """Score candidates whose remembered active set still checks out.

        Groups the infeasible candidates by the active set remembered from a
        previous scoring call and solves each group's working-set KKT
        systems in one stacked diagonal-batch call; candidates whose
        solution passes the primal/dual verification are exact constrained
        optima and are scored directly, never entering the per-candidate
        active-set loop.  On warm cross-validation calls (and later species
        of a multi-species batch) this replaces nearly every fallback solve
        with vectorized linear algebra.
        """
        if fold.ineq_columns is None:
            return
        groups: dict[tuple[int, ...], list[int]] = {}
        for index in np.flatnonzero(~feasible):
            warm = fold.warm_starts.get(int(index))
            if warm is not None and warm[1]:
                groups.setdefault(tuple(warm[1]), []).append(int(index))
        margin = tol * (1.0 + np.abs(fold.ineq_vector))
        for active, rows in groups.items():
            try:
                x, lagrange = fold.kkt_solutions(gradient, rows, list(active))
            except np.linalg.LinAlgError:
                continue
            ok = np.all(
                x @ fold.ineq_columns.T - fold.ineq_vector[None, :] >= -margin[None, :],
                axis=1,
            )
            if lagrange.size:
                ok &= lagrange.min(axis=1) >= -tol
            for position, index in enumerate(rows):
                if not ok[position]:
                    continue
                solution = x[position]
                fold.warm_starts[index] = (solution, list(active))
                residual = (test_values - fold.test_modes @ solution) / fold.test_sigma
                scores[index] = float(residual @ residual)
                resolved[index] = True

    @staticmethod
    def _refine_with_kkt(
        fold: _FoldEigState,
        gradient: np.ndarray,
        index: int,
        result: QPResult,
        tol: float = 1e-9,
    ) -> tuple[np.ndarray, list[int]]:
        """Snap an active-set solution onto its working-set KKT system.

        Re-solving the discovered working set through the same batched KKT
        path used for warm verification makes repeated scoring reproducible:
        a later call that verifies the remembered set reproduces this
        solution to the last float rounding, so warm CV scores match the
        cold ones to machine precision.  Falls back to the solver's own
        iterate when the refined point fails the KKT check (degenerate
        working set, or a backend that does not report active sets).
        """
        active = list(result.active_set)
        if not active or fold.ineq_columns is None:
            return result.x, active
        try:
            x, lagrange = fold.kkt_solutions(gradient, [index], active)
        except np.linalg.LinAlgError:
            return result.x, active
        solution = x[0]
        margin = tol * (1.0 + np.abs(fold.ineq_vector))
        if np.all(fold.ineq_columns @ solution - fold.ineq_vector >= -margin) and (
            lagrange.size == 0 or float(lagrange[0].min()) >= -tol
        ):
            return solution, active
        return result.x, active

    @staticmethod
    def _feasible(fold: _FoldEigState, solution: np.ndarray, tol: float = 1e-6) -> bool:
        """Constraint check of an eigenbasis solution (mirrors ``solve_qp``)."""
        if fold.eq_columns is not None:
            if np.max(np.abs(fold.eq_columns @ solution - fold.eq_vector), initial=0.0) > tol:
                return False
        if fold.ineq_columns is not None:
            if np.min(fold.ineq_columns @ solution - fold.ineq_vector, initial=0.0) < -tol:
                return False
        return True

    def _solve_general(
        self,
        fold: _FoldEigState,
        index: int,
        gradient: np.ndarray,
        warm_x: np.ndarray | None,
        warm_active: list[int] | None,
    ) -> QPResult:
        """Full ``solve_qp`` dispatch (SciPy fallback) for one candidate."""
        workspace = fold.fallback_workspace(index)
        program = QuadraticProgram(
            hessian=workspace.hessian,
            gradient=gradient,
            eq_matrix=fold.eq_columns,
            eq_vector=fold.eq_vector,
            ineq_matrix=fold.ineq_columns,
            ineq_vector=fold.ineq_vector,
        )
        return solve_qp(program, warm_x, active_set=warm_active, workspace=workspace)


def _kfold_scores_solve(
    problem: DeconvolutionProblem,
    lambdas: np.ndarray,
    folds: list[np.ndarray],
    permutation: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-(fold, lambda) constrained solves: the degenerate-pencil fallback.

    Each fold's restricted training problem and held-out forward model are
    assembled once; within a fold the lambda grid is swept from the largest
    candidate down with every training solve warm-started from the previous
    lambda's solution and active set (the per-lambda Hessian factorizations
    are cached on the restricted problem).
    """
    # Sweep from the largest lambda down: heavily smoothed solves are nearly
    # unconstrained (cheap from cold), and each solve then warm-starts the
    # next, slightly less smoothed one -- about half the active-set
    # iterations of an ascending sweep.
    sweep_order = np.argsort(lambdas, kind="stable")[::-1]
    totals = np.zeros(lambdas.size)
    valid = np.ones(lambdas.size, dtype=bool)
    for fold in folds:
        train = np.setdiff1d(permutation, fold)
        train_problem = problem.restrict(train)
        held_out = problem.forward.restrict(fold)
        fold_measurements = problem.measurements[fold]
        fold_sigma = problem.sigma[fold]
        warm_x = None
        warm_active = None
        for index in sweep_order:
            if not valid[index]:
                continue
            result = train_problem.solve(
                float(lambdas[index]), x0=warm_x, active_set=warm_active
            )
            if not result.converged:
                valid[index] = False
                continue
            warm_x, warm_active = result.x, result.active_set
            residual = fold_measurements - held_out.predict(result.x)
            totals[index] += float(np.sum((residual / fold_sigma) ** 2))
    return totals, valid


def k_fold_cross_validation(
    problem: DeconvolutionProblem,
    lambdas: np.ndarray,
    *,
    num_folds: int = 5,
    rng: SeedLike = 0,
) -> LambdaSelectionResult:
    """Score each candidate ``lambda`` by k-fold cross-validation.

    Parameters
    ----------
    problem:
        The full deconvolution problem.
    lambdas:
        Candidate smoothing parameters.
    num_folds:
        Number of folds; capped at the number of measurements (leave-one-out).
    rng:
        Seed controlling the random fold assignment.

    Notes
    -----
    The grid is scored through per-fold generalised eigendecompositions
    (:class:`KFoldEigPlan`: each candidate's training factor is a diagonal
    rescale; the constrained solver only runs for candidates with active
    inequalities).  The plan is cached on the problem family, so repeated
    calls — and sibling problems from
    :meth:`~repro.core.problem.DeconvolutionProblem.with_measurements`, e.g.
    a multi-species batch — reuse the per-fold factorizations.  When the
    pencil is degenerate (the plan raises
    :class:`numpy.linalg.LinAlgError`, e.g. ``ridge=0`` with ``0`` on the
    grid), the grid is scored by per-(fold, lambda) constrained solves
    instead.

    Returns
    -------
    LambdaSelectionResult
        The best candidate plus the summed held-out scores (``inf`` for
        candidates whose training solves failed to converge).
    """
    lambdas = ensure_1d(lambdas, "lambdas")
    num_measurements = problem.measurements.size
    num_folds = int(min(num_folds, num_measurements))
    if num_folds < 2:
        raise ValueError("cross-validation needs at least two folds")
    generator = as_generator(rng)
    permutation = generator.permutation(num_measurements)
    folds = np.array_split(permutation, num_folds)

    fingerprint = (num_folds, permutation.tobytes(), lambdas.tobytes())
    try:
        plan = problem.selection_cache(
            "kfold_eig",
            lambda: KFoldEigPlan(problem, lambdas, folds, permutation),
            fingerprint=fingerprint,
        )
        totals, valid = plan.score(problem.measurements)
    except np.linalg.LinAlgError:
        totals, valid = _kfold_scores_solve(problem, lambdas, folds, permutation)

    scores = {
        float(lambdas[index]): float(totals[index]) if valid[index] else np.inf
        for index in range(lambdas.size)
    }
    best = min(scores, key=scores.get)
    return LambdaSelectionResult(best_lambda=best, scores=scores, method="kfold")


def select_lambda(
    problem: DeconvolutionProblem,
    lambdas: np.ndarray | None = None,
    *,
    method: str = "gcv",
    num_folds: int = 5,
    rng: SeedLike = 0,
) -> LambdaSelectionResult:
    """Select ``lambda`` with the requested method.

    Parameters
    ----------
    problem:
        The full deconvolution problem.
    lambdas:
        Candidate grid (1-D, non-empty, finite and ``>= 0``); defaults to
        :func:`default_lambda_grid`.
    method:
        ``"gcv"`` (:func:`generalized_cross_validation`) or ``"kfold"``
        (:func:`k_fold_cross_validation`).
    num_folds, rng:
        Passed through to the k-fold selector; ignored by GCV.

    Returns
    -------
    LambdaSelectionResult
        The best candidate plus the per-candidate scores.
    """
    if method not in LAMBDA_METHODS:
        raise ValueError(f"unknown lambda selection method {method!r}")
    lambdas = default_lambda_grid() if lambdas is None else check_lambda_grid(lambdas)
    if method == "gcv":
        return generalized_cross_validation(problem, lambdas)
    return k_fold_cross_validation(problem, lambdas, num_folds=num_folds, rng=rng)
