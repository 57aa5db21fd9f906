"""Dense convex quadratic programming with a reusable null-space workspace.

The deconvolution estimate (Sec. 2.3 of the paper) is the solution of

    minimize    0.5 x^T H x + g^T x
    subject to  A_eq x  = b_eq          (RNA conservation, rate continuity)
                A_in x >= b_in          (positivity of the expression)

with ``H`` symmetric positive definite.  Every workload built on top of the
estimator (lambda cross-validation, bootstrap bands, multi-species fits,
sensitivity sweeps) solves long families of nearly identical QPs, so the
solver is organised around a reusable :class:`QPWorkspace`:

* the Hessian is factorized **once** (Cholesky ``H = L L^T``) per workspace
  and shared by every solve that reuses the workspace -- e.g. all bootstrap
  replicates of a fit, which differ only in the linear term;
* the active-set iteration is a **null-space method**: the working-set
  constraint rows are kept as a QR factorization in the Cholesky-transformed
  coordinates, updated *incrementally* (Givens rotations) as constraints
  enter and leave the working set, instead of rebuilding and re-solving a
  dense ``(n+m) x (n+m)`` KKT system at every iteration;
* a **cold start** begins at the origin, where every homogeneous positivity
  row is tight; when the first step is blocked there, the solve restarts
  from one strictly feasible point of the constraint set, computed once per
  workspace, instead of pinning rows one zero-length step at a time.  On
  the benchmark's selection fits this cuts a cold solve from about 7 to
  about 3 iterations; a few fits with many near-parallel positivity rows
  still zigzag along the grid for hundreds;
* solves also accept a **warm start** (initial point plus initial working
  set) and report the final active set, for callers that carry a related
  solution forward.

:func:`solve_qp` is the backend dispatcher; SciPy's SLSQP remains available
as a cross-check / fallback backend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import get_lapack_funcs

from repro import backends
from repro.utils.validation import ensure_1d, ensure_2d


@dataclass
class QuadraticProgram:
    """Data of a convex quadratic program.

    Attributes
    ----------
    hessian:
        Symmetric matrix ``H`` of the quadratic term, shape ``(n, n)``.
        Asymmetry within a small tolerance (float noise from Gram-matrix
        assembly) is repaired by symmetrizing ``0.5 * (H + H^T)``; asymmetry
        beyond the tolerance raises.
    gradient:
        Linear term ``g``, shape ``(n,)``.
    eq_matrix, eq_vector:
        Equality constraints ``A_eq x = b_eq`` (may be empty).
    ineq_matrix, ineq_vector:
        Inequality constraints ``A_in x >= b_in`` (may be empty).
    """

    hessian: np.ndarray
    gradient: np.ndarray
    eq_matrix: Optional[np.ndarray] = None
    eq_vector: Optional[np.ndarray] = None
    ineq_matrix: Optional[np.ndarray] = None
    ineq_vector: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.hessian = ensure_2d(self.hessian, "hessian")
        self.gradient = ensure_1d(self.gradient, "gradient")
        n = self.gradient.size
        if self.hessian.shape != (n, n):
            raise ValueError("hessian shape does not match gradient length")
        if not np.array_equal(self.hessian, self.hessian.T):
            if not np.allclose(self.hessian, self.hessian.T, atol=1e-8):
                raise ValueError("hessian must be symmetric")
            # Within tolerance but not exactly symmetric: repair the float
            # noise instead of aborting the solve (Cholesky needs symmetry).
            self.hessian = 0.5 * (self.hessian + self.hessian.T)
        if (self.eq_matrix is None) != (self.eq_vector is None):
            raise ValueError("eq_matrix and eq_vector must be provided together")
        if (self.ineq_matrix is None) != (self.ineq_vector is None):
            raise ValueError("ineq_matrix and ineq_vector must be provided together")
        if self.eq_matrix is not None:
            self.eq_matrix = ensure_2d(self.eq_matrix, "eq_matrix")
            self.eq_vector = ensure_1d(self.eq_vector, "eq_vector")
            if self.eq_matrix.shape != (self.eq_vector.size, n):
                raise ValueError("equality constraint shapes are inconsistent")
        if self.ineq_matrix is not None:
            self.ineq_matrix = ensure_2d(self.ineq_matrix, "ineq_matrix")
            self.ineq_vector = ensure_1d(self.ineq_vector, "ineq_vector")
            if self.ineq_matrix.shape != (self.ineq_vector.size, n):
                raise ValueError("inequality constraint shapes are inconsistent")

    @property
    def num_variables(self) -> int:
        """Number of optimisation variables."""
        return self.gradient.size

    def objective(self, x: np.ndarray) -> float:
        """Evaluate ``0.5 x^T H x + g^T x``."""
        x = ensure_1d(x, "x")
        return float(0.5 * x @ self.hessian @ x + self.gradient @ x)

    def is_feasible(self, x: np.ndarray, tol: float = 1e-7) -> bool:
        """Check whether ``x`` satisfies all constraints within ``tol``."""
        x = ensure_1d(x, "x")
        if self.eq_matrix is not None:
            if np.max(np.abs(self.eq_matrix @ x - self.eq_vector), initial=0.0) > tol:
                return False
        if self.ineq_matrix is not None:
            if np.min(self.ineq_matrix @ x - self.ineq_vector, initial=0.0) < -tol:
                return False
        return True


@dataclass
class QPResult:
    """Result of a quadratic-program solve.

    Attributes
    ----------
    x:
        Solution vector.
    objective:
        Objective value ``0.5 x^T H x + g^T x`` at ``x``.
    iterations:
        Number of active-set (or backend) iterations performed.
    converged:
        Whether the solve reached optimality.
    active_set:
        Indices of the inequality rows active at the solution.
    message:
        Human-readable termination status.
    """

    x: np.ndarray
    objective: float
    iterations: int
    converged: bool
    active_set: list[int] = field(default_factory=list)
    message: str = ""


@dataclass
class BatchQPResult:
    """Result of a stacked multi-RHS solve over one QP family.

    One row per problem: all problems share the workspace's Hessian and
    constraint rows and differ only in their linear term.  Rows whose shared
    working-set solution passed the batched KKT verification carry
    ``iterations == 0`` and ``fallback == False``; the remaining rows were
    handed to the per-problem active-set loop.

    Attributes
    ----------
    x:
        Solutions, shape ``(num_problems, n)`` (one row per problem).
    objectives:
        Objective values ``0.5 x^T H x + g^T x`` per row.
    iterations:
        Active-set iterations per row (zero for batch-verified rows).
    converged:
        Per-row convergence flags.
    active_sets:
        Per-row active inequality-row indices at the solution.
    fallback:
        Boolean mask of the rows solved by the per-problem active-set loop
        instead of the shared multi-RHS factorization path.
    """

    x: np.ndarray
    objectives: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    active_sets: list[list[int]]
    fallback: np.ndarray

    @property
    def num_problems(self) -> int:
        """Number of stacked problems (rows)."""
        return int(self.x.shape[0])

    @property
    def num_fallback(self) -> int:
        """Number of rows that required the per-problem active-set loop."""
        return int(np.count_nonzero(self.fallback))

    def result(self, index: int) -> QPResult:
        """Package one row as a standalone :class:`QPResult`."""
        index = int(index)
        return QPResult(
            x=self.x[index],
            objective=float(self.objectives[index]),
            iterations=int(self.iterations[index]),
            converged=bool(self.converged[index]),
            active_set=list(self.active_sets[index]),
            message="optimal" if self.converged[index] else "not converged",
        )


def _cholesky_with_jitter(hessian: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, adding an escalating diagonal jitter if needed.

    The deconvolution Hessians carry an explicit ridge and are strictly
    positive definite; the jitter only engages for borderline user-supplied
    problems (it perturbs the optimum by at most the jitter size).
    """
    try:
        return np.linalg.cholesky(hessian)
    except np.linalg.LinAlgError:
        pass
    scale = float(np.max(np.abs(np.diag(hessian))), )
    scale = scale if scale > 0 else 1.0
    identity = np.eye(hessian.shape[0])
    for exponent in (-12, -10, -8, -6):
        try:
            return np.linalg.cholesky(hessian + (scale * 10.0**exponent) * identity)
        except np.linalg.LinAlgError:
            continue
    raise np.linalg.LinAlgError("hessian is not positive definite")


class QPWorkspace:
    """Shared factorization state for a family of related QPs.

    The workspace is bound to one ``(hessian, constraint matrices)`` triple:
    it stores the Cholesky factor ``L`` of the Hessian and the constraint
    rows pre-transformed into the triangular coordinates
    (``L^{-1} A^T`` columns), so any number of solves over different linear
    terms, starting points and warm-start active sets reuse the expensive
    pieces.  During a solve it maintains a QR factorization of the
    working-set columns that is updated incrementally (one Givens sweep per
    constraint entering or leaving) rather than refactorized.

    Not thread-safe: a workspace runs one solve at a time.

    Parameters
    ----------
    problem:
        Problem whose Hessian and constraints define the family.  The
        ``gradient`` of this problem is only a default; :meth:`solve` accepts
        a per-solve linear term.

    Attributes
    ----------
    interior_point:
        A read-only point with every inequality slack clearly positive that
        satisfies the equalities, or ``None`` when the constraint set has no
        such point this construction finds.  Cold solves blocked at the
        origin restart here.
    """

    def __init__(self, problem: QuadraticProgram) -> None:
        n = problem.num_variables
        self.num_variables = n
        self.hessian = problem.hessian
        self.default_gradient = problem.gradient
        self.eq_matrix = problem.eq_matrix if problem.eq_matrix is not None else np.zeros((0, n))
        self.eq_vector = problem.eq_vector if problem.eq_vector is not None else np.zeros(0)
        self.ineq_matrix = (
            problem.ineq_matrix if problem.ineq_matrix is not None else np.zeros((0, n))
        )
        self.ineq_vector = (
            problem.ineq_vector if problem.ineq_vector is not None else np.zeros(0)
        )
        self.num_eq = self.eq_matrix.shape[0]
        self.num_ineq = self.ineq_matrix.shape[0]

        self.cholesky = _cholesky_with_jitter(self.hessian)
        # Raw LAPACK triangular solver: an order of magnitude less call
        # overhead than scipy.linalg.solve_triangular at these sizes.
        (self._trtrs,) = get_lapack_funcs(("trtrs",), (self.cholesky,))
        # Constraint rows transformed once into the triangular coordinates:
        # column i is L^{-1} a_i for constraint row a_i.
        if self.num_eq:
            self._eq_columns, _ = self._trtrs(
                self.cholesky, np.asfortranarray(self.eq_matrix.T), lower=1, trans=0
            )
        else:
            self._eq_columns = np.zeros((n, 0))
        # The inequality columns are only needed once a row enters the
        # working set, so they are transformed lazily (solves whose working
        # set stays empty skip the batch triangular solve entirely).
        self._ineq_columns: Optional[np.ndarray] = None
        # The zero vector's feasibility never changes; checking it once lets
        # default-start solves skip the per-call constraint sweep.
        self._zero_feasible = self._is_feasible(np.zeros(n), tol=1e-6)
        # Incremental QR state of the working-set columns (valid mid-solve).
        self._q = np.eye(n)
        self._r = np.zeros((n, n))
        self._k = 0
        # Factorize the (never-changing) equality columns once; resets then
        # just copy this snapshot instead of re-orthogonalising per solve.
        # The indices of the rows actually factored are kept so batched
        # solves can assemble the matching right-hand side.
        self._eq_kept: list[int] = []
        for j in range(self.num_eq):
            # Degenerate equality rows are skipped: the dependent row is
            # implied by the others.
            if self._append_column(self._eq_columns[:, j]):
                self._eq_kept.append(j)
        self._q0 = self._q.copy()
        self._r0 = self._r.copy()
        self._k0 = self._k
        # Number of equality columns actually inside the factorization; when
        # dependent equality rows were skipped this is smaller than num_eq,
        # and the multiplier bookkeeping must use this count.
        self._num_eq_factored = self._k
        # Strictly feasible point where cold solves restart when the origin
        # is a degenerate apex (read-only; ``None`` keeps the origin path).
        self.interior_point = self._find_interior_point()
        if self.interior_point is not None:
            self.interior_point.flags.writeable = False

    def matches(self, problem: QuadraticProgram) -> bool:
        """Whether ``problem`` shares this workspace's Hessian and constraints.

        Identity checks only -- the caller is responsible for passing problems
        built from the same cached arrays.
        """
        eq = problem.eq_matrix if problem.eq_matrix is not None else None
        ineq = problem.ineq_matrix if problem.ineq_matrix is not None else None
        return (
            problem.hessian is self.hessian
            and (eq is None) == (self.num_eq == 0)
            and (ineq is None) == (self.num_ineq == 0)
            and (eq is None or eq is self.eq_matrix)
            and (ineq is None or ineq is self.ineq_matrix)
        )

    def _find_interior_point(self) -> Optional[np.ndarray]:
        """A strictly feasible point of the constraint set, or ``None``.

        The sum of the inequality rows, ``u = A_in^T 1``, has
        ``a_i^T u = sum_j a_i^T a_j > 0`` for every row when the rows have
        non-negative pairwise products -- positivity rows of a non-negative
        basis, say -- and one small solve on ``A_eq A_eq^T`` projects it
        onto ``A_eq x = b_eq``.  The point is kept only if every inequality
        slack stays clearly positive and the equality residual is rounding
        noise; a set without a strict interior gets ``None``.
        """
        if not self.num_ineq:
            return None
        point = self.ineq_matrix.sum(axis=0)
        if self._eq_kept:
            rows = self.eq_matrix[self._eq_kept]
            try:
                shift = np.linalg.solve(
                    rows @ rows.T, rows @ point - self.eq_vector[self._eq_kept]
                )
            except np.linalg.LinAlgError:
                return None
            point = point - rows.T @ shift
        if self.num_eq:
            residual = np.abs(self.eq_matrix @ point - self.eq_vector)
            scale = np.abs(self.eq_matrix) @ np.abs(point) + np.abs(self.eq_vector)
            if np.any(residual > 1e-12 * scale):
                return None
        slack = self.ineq_matrix @ point - self.ineq_vector
        scale = np.abs(self.ineq_matrix) @ np.abs(point) + np.abs(self.ineq_vector)
        if not np.all(slack > 1e-8 * scale):
            return None
        return point

    # ------------------------------------------------------------------
    # Incremental QR of the working-set columns in transformed coordinates.
    # ------------------------------------------------------------------

    def _ineq_column(self, index: int) -> np.ndarray:
        """Transformed column ``L^{-1} a_index`` of an inequality row."""
        if self._ineq_columns is None:
            self._ineq_columns, _ = self._trtrs(
                self.cholesky, np.asfortranarray(self.ineq_matrix.T), lower=1, trans=0
            )
        return self._ineq_columns[:, index]

    def _reset_factorization(self) -> None:
        """Restart the QR factorization with the equality-only working set."""
        np.copyto(self._q, self._q0)
        np.copyto(self._r, self._r0)
        self._k = self._k0

    def _append_column(self, column: np.ndarray, dep_tol: float = 1e-11) -> bool:
        """Add one transformed constraint column to the QR factorization.

        One Householder reflection maps the column's out-of-range components
        onto coordinate ``k``.  Returns ``False`` (leaving the factorization
        unchanged) when the column is numerically dependent on the current
        working set.
        """
        n, k = self.num_variables, self._k
        if k >= n:
            return False
        w = self._q.T @ column
        tail = w[k:]
        tail_norm = math.sqrt(float(tail @ tail))
        scale = max(1.0, math.sqrt(float(column @ column)))
        if tail_norm <= dep_tol * scale:
            return False
        # Reflection H v = beta e1 with the sign chosen to avoid cancellation.
        beta = -tail_norm if tail[0] >= 0.0 else tail_norm
        v = tail.copy()
        v[0] -= beta
        vv = float(v @ v)
        if vv > 0.0:
            trailing = self._q[:, k:]
            trailing -= np.outer(trailing @ v, (2.0 / vv) * v)
        self._r[:, k] = 0.0
        self._r[:k, k] = w[:k]
        self._r[k, k] = beta
        self._k = k + 1
        return True

    def _remove_column(self, position: int) -> None:
        """Drop the working-set column at ``position`` (eq columns excluded)."""
        j = self._num_eq_factored + position
        k = self._k
        r = self._r
        r[:, j : k - 1] = r[:, j + 1 : k]
        r[:, k - 1] = 0.0
        self._k = k - 1
        # The shifted columns are upper Hessenberg; one Givens sweep restores
        # the triangle while keeping Q orthogonal.
        for c in range(j, self._k):
            a, b = r[c, c], r[c + 1, c]
            if b == 0.0:
                continue
            radius = math.hypot(a, b)
            cos_t, sin_t = a / radius, b / radius
            top = cos_t * r[c, c : self._k] + sin_t * r[c + 1, c : self._k]
            bottom = cos_t * r[c + 1, c : self._k] - sin_t * r[c, c : self._k]
            r[c, c : self._k] = top
            r[c + 1, c : self._k] = bottom
            r[c + 1, c] = 0.0
            q_lo = self._q[:, c] * cos_t + self._q[:, c + 1] * sin_t
            q_hi = self._q[:, c + 1] * cos_t - self._q[:, c] * sin_t
            self._q[:, c] = q_lo
            self._q[:, c + 1] = q_hi

    # ------------------------------------------------------------------
    # Null-space active-set solve.
    # ------------------------------------------------------------------

    def _objective(self, x: np.ndarray, gradient: np.ndarray) -> float:
        return float(0.5 * x @ self.hessian @ x + gradient @ x)

    def _is_feasible(self, x: np.ndarray, tol: float) -> bool:
        if self.num_eq:
            residual = self.eq_matrix @ x - self.eq_vector
            if max(residual.max(), -residual.min()) > tol:
                return False
        if self.num_ineq and (self.ineq_matrix @ x - self.ineq_vector).min() < -tol:
            return False
        return True

    def _ratio_test(
        self,
        x: np.ndarray,
        step: np.ndarray,
        in_working: np.ndarray,
        use_bland: bool,
        tol: float,
    ) -> tuple[float, Optional[int]]:
        """Largest feasible step length along ``step`` and its blocking row.

        A vectorized ratio test over the inactive inequality rows; the
        blocking row is ``None`` when the full step is feasible.
        """
        alpha = 1.0
        blocking = None
        if self.num_ineq:
            directional = self.ineq_matrix @ step
            candidates = np.flatnonzero((directional < -tol) & ~in_working)
            if candidates.size:
                slack = self.ineq_matrix @ x - self.ineq_vector
                ratios = -slack[candidates] / directional[candidates]
                position = int(np.argmin(ratios))
                if ratios[position] < alpha:
                    alpha = float(max(ratios[position], 0.0))
                    if use_bland:
                        tied = ratios <= ratios[position] + tol
                        blocking = int(candidates[tied].min())
                    else:
                        blocking = int(candidates[position])
        return alpha, blocking

    def solve(
        self,
        gradient: Optional[np.ndarray] = None,
        *,
        x0: Optional[np.ndarray] = None,
        active_set: Optional[Sequence[int]] = None,
        max_iterations: int = 500,
        tol: float = 1e-9,
    ) -> QPResult:
        """Null-space active-set solve for one member of the QP family.

        Parameters
        ----------
        gradient:
            Linear term of this solve; defaults to the gradient of the
            problem the workspace was built from.
        x0:
            Feasible starting point.  ``None`` (the default) is a cold start
            at zero: if the first step from there is blocked at zero length,
            the solve heads from :attr:`interior_point` to the same target
            instead.  An explicit ``x0``, zero included, always keeps its
            own path.  A ``ValueError`` is raised if ``x0`` is infeasible —
            unless an ``active_set`` is also given (warm-start context), in
            which case the solve degrades to a cold start when zero is
            feasible.
        active_set:
            Warm-start working set: inequality-constraint indices to activate
            initially.  Indices that are not (near-)active at ``x0`` or are
            linearly dependent on the rest are silently dropped, so the final
            ``active_set`` of a previous, related solve can be passed
            verbatim.
        max_iterations, tol:
            Iteration cap and numerical tolerance of the active-set loop.

        Returns
        -------
        QPResult
            The solve outcome; ``active_set`` lists the inequality rows
            active at the solution (the warm start for a related solve).
        """
        n = self.num_variables
        if gradient is None:
            g = self.default_gradient
        else:
            g = np.asarray(gradient, dtype=float)
            if g.ndim != 1:
                g = ensure_1d(gradient, "gradient")
        if g.size != n:
            raise ValueError("gradient has the wrong length")
        cold = x0 is None
        if cold:
            x = np.zeros(n)
        else:
            x = np.asarray(x0, dtype=float)
            if x.ndim != 1:
                x = ensure_1d(x0, "x0")
            x = x.copy()
        if x.size != n:
            raise ValueError("x0 has the wrong length")
        feasible = self._zero_feasible if cold else self._is_feasible(x, tol=1e-6)
        if not feasible:
            # Warm starts (x0 together with an active set) are best-effort:
            # automated callers hand over previous solutions that may carry
            # fallback-backend constraint violations, so degrade to a cold
            # start instead of aborting the whole sweep.  A bare explicit x0
            # keeps the strict contract.
            if active_set is not None and self._zero_feasible:
                x = np.zeros(n)
                active_set = None
                cold = True
            else:
                raise ValueError("the starting point x0 is not feasible")

        lower = self.cholesky
        trtrs = self._trtrs
        hessian = self.hessian
        num_eq_factored, num_ineq = self._num_eq_factored, self.num_ineq

        # (Re)build the QR factorization: equality rows always, then any
        # warm-start inequality rows that are actually active at x.
        self._reset_factorization()
        working: list[int] = []
        in_working = np.zeros(num_ineq, dtype=bool)
        if active_set:
            slack0 = self.ineq_matrix @ x - self.ineq_vector if num_ineq else np.zeros(0)
            for index in active_set:
                index = int(index)
                if index < 0 or index >= num_ineq or in_working[index]:
                    continue
                if abs(slack0[index]) > 1e-6 * (1.0 + abs(self.ineq_vector[index])):
                    continue
                if self._append_column(self._ineq_column(index)):
                    working.append(index)
                    in_working[index] = True

        # A cold start sits at the origin, where every homogeneous inequality
        # row is tight.  If its first step is blocked at zero length, restart
        # from the interior point instead of pinning rows at the apex.
        restart = self.interior_point if cold and not working else None

        # Anti-cycling: after a run of degenerate (zero-length) steps, switch
        # to Bland's smallest-index pivoting, which cannot cycle.
        stalled = 0
        use_bland = False

        for iteration in range(1, max_iterations + 1):
            gradient_at_x = hessian @ x + g
            d, _ = trtrs(lower, gradient_at_x, lower=1, trans=0)
            k = self._k
            if k < n:
                null_basis = self._q[:, k:]
                q_step = -(null_basis @ (null_basis.T @ d))
                step, _ = trtrs(lower, q_step, lower=1, trans=1)
            else:
                step = np.zeros(n)

            if math.sqrt(float(step @ step)) <= tol * max(
                1.0, math.sqrt(float(x @ x))
            ):
                # Stationary on the working set: check the multipliers of the
                # active inequality rows.  Stationarity reads
                # ``H p + C^T mu = -(H x + g)``, so the Lagrange multipliers
                # of the ``a_i^T x >= b_i`` constraints are ``-mu``.
                if k > num_eq_factored:
                    range_basis = self._q[:, :k]
                    mu, _ = trtrs(
                        np.ascontiguousarray(self._r[:k, :k]),
                        -(range_basis.T @ d),
                        lower=0,
                        trans=0,
                    )
                    lagrange = -mu[num_eq_factored:]
                else:
                    lagrange = np.zeros(0)
                if lagrange.size == 0 or float(lagrange.min()) >= -tol:
                    return QPResult(
                        x=x,
                        objective=self._objective(x, g),
                        iterations=iteration,
                        converged=True,
                        active_set=sorted(working),
                        message="optimal",
                    )
                if use_bland:
                    negative = np.flatnonzero(lagrange < -tol)
                    worst = int(min(negative, key=lambda i: working[i]))
                else:
                    worst = int(np.argmin(lagrange))
                self._remove_column(worst)
                in_working[working.pop(worst)] = False
                continue

            alpha, blocking = self._ratio_test(x, step, in_working, use_bland, tol)
            if restart is not None:
                if blocking is not None and alpha <= tol:
                    # Blocked at the apex: head for the same working-set
                    # minimizer ``x + step`` from the interior point.
                    step = step - restart
                    x = restart
                    alpha, blocking = self._ratio_test(x, step, in_working, False, tol)
                restart = None
            x = x + alpha * step
            if blocking is not None and alpha <= tol:
                stalled += 1
                if stalled >= 12:
                    use_bland = True
            elif alpha > tol:
                stalled = 0
            if blocking is not None:
                if self._append_column(self._ineq_column(blocking)):
                    working.append(blocking)
                    in_working[blocking] = True
                else:
                    # The blocking row is dependent on the working set: the
                    # iteration cannot make progress without cycling, so hand
                    # the problem to the fallback backend.
                    return QPResult(
                        x=x,
                        objective=self._objective(x, g),
                        iterations=iteration,
                        converged=False,
                        active_set=sorted(working),
                        message="degenerate working set",
                    )

        return QPResult(
            x=x,
            objective=self._objective(x, g),
            iterations=max_iterations,
            converged=False,
            active_set=sorted(working),
            message="maximum iterations reached",
        )

    # ------------------------------------------------------------------
    # Stacked multi-RHS solve.
    # ------------------------------------------------------------------

    def solve_batch(
        self,
        gradients: np.ndarray,
        *,
        shared_active_set: Optional[Sequence[int]] = None,
        max_iterations: int = 500,
        tol: float = 1e-9,
    ) -> BatchQPResult:
        """Solve a whole family of linear terms against the shared factorization.

        All problems share this workspace's Hessian and constraint rows.  The
        batch path factors the working set **once** — the equality rows plus
        any ``shared_active_set`` inequality rows — and solves every row's
        working-set KKT system in single multi-RHS LAPACK calls (two
        triangular solves against the Cholesky factor, two dense products
        against the working-set QR).  Each candidate solution is then KKT
        verified in one vectorized pass: primal feasibility of every
        inequality row and non-negativity of the working-set multipliers.
        Rows that pass are exact constrained optima; only the rows where a
        *different* set of positivity constraints binds fall back to the
        per-problem active-set loop (a cold :meth:`solve`).

        Parameters
        ----------
        gradients:
            Stacked linear terms, shape ``(num_problems, n)`` — one row per
            problem.
        shared_active_set:
            Inequality rows expected to be active for most rows (e.g. the
            active set of a base fit whose bootstrap replicates are being
            solved).  Out-of-range, duplicate and linearly dependent indices
            are silently dropped.
        max_iterations, tol:
            Passed to the fallback active-set solves; ``tol`` also bounds the
            primal/dual verification of the batched solutions.

        Notes
        -----
        The batch is **adaptive**: rows rejected by the verification are
        solved one at a time, each from a cold start (which begins inside
        the positivity cone; chaining each row from the previous fallback
        solution measured slower), and every newly discovered active set is
        immediately re-tried against *all* still-pending rows in another
        stacked pass.
        A family whose members share a handful of distinct active sets
        therefore costs one exact solve plus one multi-RHS pass per distinct
        set, not one active-set loop per row.

        Returns
        -------
        BatchQPResult
            Stacked solutions plus per-row convergence metadata.
        """
        gradients = np.asarray(gradients, dtype=float)
        if gradients.ndim != 2 or gradients.shape[1] != self.num_variables:
            raise ValueError(
                "gradients must have shape (num_problems, num_variables)"
            )
        kb = backends.active_backend()
        num_problems = gradients.shape[0]
        n = self.num_variables
        solutions = np.zeros((num_problems, n))
        iterations = np.zeros(num_problems, dtype=int)
        converged = np.ones(num_problems, dtype=bool)
        active_sets: list[list[int]] = [[] for _ in range(num_problems)]
        fallback = np.zeros(num_problems, dtype=bool)

        guess: list[int] = []
        if shared_active_set:
            seen: set[int] = set()
            for index in shared_active_set:
                index = int(index)
                if 0 <= index < self.num_ineq and index not in seen:
                    seen.add(index)
                    guess.append(index)

        remaining = list(range(num_problems))
        tried: set[tuple[int, ...]] = set()
        while remaining:
            key = tuple(sorted(guess))
            if key not in tried:
                tried.add(key)
                rows = np.asarray(remaining, dtype=int)
                working, candidates, accepted = self._try_working_set(
                    gradients[rows], guess, tol
                )
                working_sorted = sorted(working)
                accepted_rows, pending_rows = kb.partition_accepted(
                    solutions, rows, candidates, accepted
                )
                for row in accepted_rows:
                    active_sets[row] = list(working_sorted)
                remaining = [int(row) for row in pending_rows]
                if not remaining:
                    break
            # Exact active-set solve of one pending row from a cold start.
            row = remaining.pop(0)
            fallback[row] = True
            try:
                row_result = self.solve(
                    gradients[row], max_iterations=max_iterations, tol=tol
                )
            except ValueError:
                converged[row] = False
                continue
            solutions[row] = row_result.x
            iterations[row] = row_result.iterations
            converged[row] = row_result.converged
            active_sets[row] = list(row_result.active_set)
            if row_result.converged:
                guess = list(row_result.active_set)

        objectives = kb.batch_objectives(solutions, self.hessian, gradients)
        return BatchQPResult(
            x=solutions,
            objectives=objectives,
            iterations=iterations,
            converged=converged,
            active_sets=active_sets,
            fallback=fallback,
        )

    def _try_working_set(
        self, gradients: np.ndarray, guess: Sequence[int], tol: float
    ) -> tuple[list[int], np.ndarray, np.ndarray]:
        """One stacked working-set pass of :meth:`solve_batch`.

        Factors the equality rows plus the ``guess`` inequality rows once
        (incremental Householder appends on top of the equality snapshot),
        solves every row's working-set KKT system in multi-RHS LAPACK calls,
        and KKT-verifies all candidates in one vectorized pass.

        Returns
        -------
        tuple
            ``(working, candidates, accepted)``: the inequality rows
            actually factored, the per-row candidate solutions, and the rows
            passing the full primal/dual verification.
        """
        num_rows = gradients.shape[0]
        self._reset_factorization()
        working: list[int] = []
        for index in guess:
            if self._append_column(self._ineq_column(index)):
                working.append(index)
        k = self._k
        trtrs = self._trtrs
        lower = self.cholesky
        # D = L^{-1} G^T for every row in one triangular multi-RHS solve.
        transformed, _ = trtrs(
            lower, np.asfortranarray(gradients.T), lower=1, trans=0
        )
        if k:
            rhs = np.concatenate(
                [
                    self.eq_vector[self._eq_kept],
                    self.ineq_vector[np.asarray(working, dtype=int)]
                    if working
                    else np.zeros(0),
                ]
            )
            r_factor = np.ascontiguousarray(self._r[:k, :k])
            # Range-space component: u with R^T u = rhs (the same for every
            # row — the working-set right-hand side is measurement free).
            particular, _ = trtrs(r_factor, rhs, lower=0, trans=1)
            range_basis = self._q[:, :k]
            null_basis = self._q[:, k:]
            # y = Q1 u - Q2 (Q2^T d) per row, all rows at once.
            y = -(null_basis @ (null_basis.T @ transformed))
            y += (range_basis @ particular)[:, None]
            # Working-set multipliers of every row (same convention as
            # :meth:`solve`): R mu = -(u + Q1^T d), Lagrange multipliers of
            # the active inequality rows are ``-mu``.
            multipliers, _ = trtrs(
                r_factor,
                -(particular[:, None] + range_basis.T @ transformed),
                lower=0,
                trans=0,
            )
            lagrange = -multipliers[self._num_eq_factored:, :]
        else:
            y = -transformed
            lagrange = np.zeros((0, num_rows))
        x_columns, _ = trtrs(lower, y, lower=1, trans=1)
        candidates = np.ascontiguousarray(x_columns.T)

        # Batched KKT verification: primal feasibility of all inequality
        # rows, dual feasibility (non-negative multipliers) of the working
        # ones.  Rows passing both are exact constrained optima.
        if self.num_ineq:
            slack = self.ineq_matrix @ x_columns - self.ineq_vector[:, None]
            margin = (tol * (1.0 + np.abs(self.ineq_vector)))[:, None]
            accepted = np.all(slack >= -margin, axis=0)
        else:
            accepted = np.ones(num_rows, dtype=bool)
        if lagrange.size:
            accepted &= lagrange.min(axis=0) >= -tol
        return working, candidates, accepted


def kkt_solve_diagonal_batch(
    diagonals: np.ndarray,
    gradient: np.ndarray,
    columns: np.ndarray,
    rhs: np.ndarray,
    num_equalities: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked working-set KKT solves for a family of diagonal Hessians.

    Solves, for every row ``l`` of ``diagonals``, the equality-constrained
    program ``min 0.5 x^T diag(d_l) x + q^T x`` subject to ``C x = b`` in one
    batched (Schur-complement) linear-algebra pass: the unconstrained optima
    are an elementwise divide, and the per-row corrections are one stacked
    ``solve`` over the small ``(k, k)`` Schur systems.  This is the engine
    behind the k-fold cross-validation fallback: in the per-fold eigenbasis
    every candidate lambda's Hessian is diagonal, so all candidates sharing a
    working set are solved in a single call.

    Parameters
    ----------
    diagonals:
        Hessian diagonals ``d_l``, shape ``(num_problems, n)`` (all entries
        positive).
    gradient:
        Linear term ``q``: shape ``(n,)`` when all problems share one
        gradient (the CV case: one species scored across a lambda grid), or
        shape ``(num_problems, n)`` for one gradient per row (the mixed-
        lambda micro-batch case: each species brings its own measurements
        *and* its own lambda).
    columns:
        Working-set constraint rows ``C``, shape ``(k, n)`` — equality rows
        first, then the inequality rows pinned active.
    rhs:
        Right-hand side ``b``, shape ``(k,)``.
    num_equalities:
        Number of leading rows of ``columns`` that are true equalities.

    Returns
    -------
    tuple[numpy.ndarray, numpy.ndarray]
        ``(x, ineq_multipliers)``: the solutions, shape
        ``(num_problems, n)``, and the Lagrange multipliers of the pinned
        inequality rows, shape ``(num_problems, k - num_equalities)`` —
        non-negative multipliers mean the pinned rows are dual feasible for
        ``C x >= b`` constraints.

    Raises
    ------
    numpy.linalg.LinAlgError
        If a Schur system is singular (linearly dependent working set).
    """
    diagonals = np.asarray(diagonals, dtype=float)
    gradient = np.asarray(gradient, dtype=float)
    if gradient.ndim == 1:
        gradient = gradient[None, :]
    unconstrained = -gradient / diagonals
    if columns.shape[0] == 0:
        return unconstrained, np.zeros((diagonals.shape[0], 0))
    scaled = columns[None, :, :] / diagonals[:, None, :]
    schur = scaled @ columns.T
    residual = rhs[None, :] - unconstrained @ columns.T
    multipliers = np.linalg.solve(schur, residual[..., None])[..., 0]
    solutions = unconstrained + np.einsum("lk,lkc->lc", multipliers, scaled)
    return solutions, multipliers[:, int(num_equalities):]


class MixedLambdaEigPlan:
    """Cross-lambda stacked solver in the shared shifted-pencil eigenbasis.

    A mixed-lambda micro-batch (one measurement vector *and* one lambda per
    species, all on the same design) used to cost one ``solve_batch`` per
    distinct lambda, and the ~0.1 ms fixed cost per group was the per-batch
    floor.  This plan removes the per-lambda factorizations: diagonalize the
    pencil ``(Omega, A^T W A + ridge/2 + c * Omega)`` **once** — the ``B``
    matrix is the halved Hessian at the shift ``c``, positive definite and
    well conditioned when ``c`` sits mid-grid — and every lambda's Hessian
    becomes diagonal in the shared eigenbasis::

        V^T H(lam) V = diag(2 * (1 + (lam - c) * mu))

    so one mixed-lambda batch is a single stacked
    :func:`kkt_solve_diagonal_batch` call per candidate working set.  Rows
    whose positivity pattern matches none of the candidate sets are returned
    as rejected; the caller falls back to the per-group active-set path for
    exactly those rows.  This is the same numerical trick
    ``KFoldEigPlan`` uses per CV fold, applied to the full (un-folded)
    problem with per-row gradients.

    Accepted rows are *exact* optima of their working set's KKT system with
    verified primal/dual feasibility (same margins as the active-set
    verifier), so the stacked path agrees with the per-group path to solver
    tolerance — the repo-wide 1e-10 equivalence gate holds across both.

    Parameters
    ----------
    gram:
        Weighted Gram matrix ``A^T W A`` (symmetrized), shape ``(n, n)``.
    penalty:
        Roughness penalty ``Omega``, shape ``(n, n)``.
    ridge:
        Ridge term added to the Hessian diagonal.
    shift:
        Pencil shift ``c`` — pick the geometric mean of the batch's lambdas
        so ``|log(lam / c)|`` stays small across the batch.
    eq_matrix, eq_vector:
        Equality constraint rows ``A_eq x = b_eq`` (may be empty).
    ineq_matrix, ineq_vector:
        Inequality constraint rows ``A_in x >= b_in`` (may be empty).

    Raises
    ------
    numpy.linalg.LinAlgError
        If the shifted pencil is not positive definite (caller falls back to
        the per-group path).
    """

    #: Working sets remembered across calls (most recently confirmed first).
    MAX_REMEMBERED = 4

    def __init__(
        self,
        gram: np.ndarray,
        penalty: np.ndarray,
        ridge: float,
        shift: float,
        eq_matrix: Optional[np.ndarray] = None,
        eq_vector: Optional[np.ndarray] = None,
        ineq_matrix: Optional[np.ndarray] = None,
        ineq_vector: Optional[np.ndarray] = None,
    ) -> None:
        from scipy.linalg import eigh

        num_coefficients = gram.shape[0]
        shifted = gram + 0.5 * float(ridge) * np.eye(num_coefficients)
        shifted += float(shift) * penalty
        self.shift = float(shift)
        self.mu, self.vectors = eigh(penalty, shifted)
        if eq_matrix is not None and eq_matrix.size:
            self.eq_columns = eq_matrix @ self.vectors
            self.eq_vector = np.asarray(eq_vector, dtype=float)
        else:
            self.eq_columns = np.zeros((0, num_coefficients))
            self.eq_vector = np.zeros(0)
        if ineq_matrix is not None and ineq_matrix.size:
            self.ineq_columns = ineq_matrix @ self.vectors
            self.ineq_vector = np.asarray(ineq_vector, dtype=float)
        else:
            self.ineq_columns = np.zeros((0, num_coefficients))
            self.ineq_vector = np.zeros(0)
        # Primal feasibility margin per inequality row (same convention as
        # the active-set verifier: tol * (1 + |b|)).
        self._ineq_scale = 1.0 + np.abs(self.ineq_vector)
        self._remembered: list[tuple[int, ...]] = []

    def diagonals(self, lams: np.ndarray) -> np.ndarray:
        """Per-lambda Hessian diagonals ``2 (1 + (lam - c) mu)``.

        Raises :class:`numpy.linalg.LinAlgError` when any diagonal is not
        strictly positive (a lambda too far from the shift for this pencil).
        """
        lams = np.asarray(lams, dtype=float)
        diagonals = 2.0 * (1.0 + (lams[:, None] - self.shift) * self.mu[None, :])
        if not np.all(diagonals > 0.0) or not np.all(np.isfinite(diagonals)):
            raise np.linalg.LinAlgError("indefinite shifted pencil for this lambda batch")
        return diagonals

    def to_eigenbasis(self, gradients: np.ndarray) -> np.ndarray:
        """Map per-row gradients ``(k, n)`` into eigenbasis coordinates."""
        return gradients @ self.vectors

    def remember(self, active_set: Sequence[int]) -> None:
        """Record a confirmed working set (front of the candidate queue)."""
        key = tuple(sorted(int(index) for index in active_set))
        if key in self._remembered:
            self._remembered.remove(key)
        self._remembered.insert(0, key)
        del self._remembered[self.MAX_REMEMBERED :]

    def candidate_sets(self, guess: Optional[Sequence[int]]) -> list[tuple[int, ...]]:
        """Working sets to try, in order: guess, remembered sets, empty."""
        candidates: list[tuple[int, ...]] = []
        if guess is not None:
            candidates.append(tuple(sorted(int(index) for index in guess)))
        for key in self._remembered:
            if key not in candidates:
                candidates.append(key)
        if () not in candidates:
            candidates.append(())
        return candidates

    def solve(
        self,
        lams: np.ndarray,
        gradients: np.ndarray,
        *,
        guess: Optional[Sequence[int]] = None,
        tol: float = 1e-9,
    ) -> tuple[np.ndarray, np.ndarray, list[Optional[list[int]]]]:
        """Stacked solve of ``min 0.5 x^T H(lam_l) x + g_l^T x`` per row.

        Tries each candidate working set (equalities plus pinned positivity
        rows) in one stacked KKT pass over the rows still unsolved, keeping
        the rows whose optimum verifies primal feasibility across *all*
        inequalities and dual feasibility on the pinned rows.

        Returns
        -------
        tuple
            ``(solutions, objectives, active_sets)``: solutions in the
            original basis, shape ``(k, n)``; objective values, shape
            ``(k,)``; and the per-row confirmed working set, or ``None``
            for rows no candidate set solved (caller falls back).
        """
        lams = np.asarray(lams, dtype=float)
        diagonals = self.diagonals(lams)
        gradients_z = self.to_eigenbasis(np.asarray(gradients, dtype=float))
        num_rows = lams.shape[0]
        num_eq = self.eq_columns.shape[0]
        solutions_z = np.zeros_like(gradients_z)
        active_sets: list[Optional[list[int]]] = [None] * num_rows
        # Cancellation guard: a diagonal entry is computed as
        # ``1 + (lam - c) mu`` and loses digits when the product approaches
        # -1; rows where the worst relative rounding in any entry could move
        # the solution past ~1e-12 are sent to the exact per-group fallback
        # instead of risking the repo-wide 1e-10 equivalence gate.
        rounding = np.finfo(float).eps * (
            2.0 + 2.0 * np.abs(lams[:, None] - self.shift) * np.abs(self.mu)[None, :]
        )
        well_conditioned = np.all(rounding <= 1e-12 * diagonals, axis=1)
        pending = np.flatnonzero(well_conditioned)
        for candidate in self.candidate_sets(guess):
            if pending.size == 0:
                break
            pinned = list(candidate)
            columns = np.vstack([self.eq_columns, self.ineq_columns[pinned]])
            rhs = np.concatenate([self.eq_vector, self.ineq_vector[pinned]])
            try:
                trial, multipliers = kkt_solve_diagonal_batch(
                    diagonals[pending], gradients_z[pending], columns, rhs, num_eq
                )
            except np.linalg.LinAlgError:
                continue  # dependent working set: try the next candidate
            accepted = np.ones(pending.size, dtype=bool)
            if self.ineq_columns.shape[0]:
                slack = trial @ self.ineq_columns.T - self.ineq_vector[None, :]
                accepted &= np.all(slack >= -tol * self._ineq_scale[None, :], axis=1)
            if multipliers.shape[1]:
                accepted &= np.all(multipliers >= -tol, axis=1)
            if not np.any(accepted):
                continue
            taken = pending[accepted]
            solutions_z[taken] = trial[accepted]
            for row in taken:
                active_sets[row] = pinned
            self.remember(pinned)
            pending = pending[~accepted]
        objectives = 0.5 * np.einsum("kn,kn,kn->k", diagonals, solutions_z, solutions_z)
        objectives += np.einsum("kn,kn->k", gradients_z, solutions_z)
        solutions = solutions_z @ self.vectors.T
        return solutions, objectives, active_sets


def solve_qp_active_set(
    problem: QuadraticProgram,
    x0: Optional[np.ndarray] = None,
    *,
    active_set: Optional[Sequence[int]] = None,
    workspace: Optional[QPWorkspace] = None,
    max_iterations: int = 500,
    tol: float = 1e-9,
) -> QPResult:
    """Primal null-space active-set method for a convex QP.

    Parameters
    ----------
    problem:
        Problem data; ``hessian`` should be positive definite (add a small
        ridge when building the problem if necessary).
    x0:
        Feasible starting point.  Defaults to a cold start at the zero
        vector, which is feasible for the homogeneous constraints arising in
        deconvolution (see :meth:`QPWorkspace.solve`); a ``ValueError`` is
        raised if the starting point is infeasible.
    active_set:
        Warm-start working set (inequality-row indices), typically the
        ``active_set`` of a previous, related solve.
    workspace:
        Reusable :class:`QPWorkspace`; one is created on the fly when omitted
        or when it does not match the problem's Hessian/constraints.
    max_iterations:
        Iteration cap for the active-set loop.
    tol:
        Numerical tolerance used for step, feasibility and multiplier tests.

    Returns
    -------
    QPResult
        The solve outcome (solution, objective, active set, convergence
        metadata).
    """
    if workspace is None or not workspace.matches(problem):
        try:
            workspace = QPWorkspace(problem)
        except np.linalg.LinAlgError as error:
            start = np.zeros(problem.num_variables) if x0 is None else ensure_1d(x0, "x0")
            return QPResult(
                x=start.copy(),
                objective=problem.objective(start),
                iterations=0,
                converged=False,
                message=str(error),
            )
    return workspace.solve(
        problem.gradient,
        x0=x0,
        active_set=active_set,
        max_iterations=max_iterations,
        tol=tol,
    )


def _solve_qp_scipy(problem: QuadraticProgram, x0: Optional[np.ndarray]) -> QPResult:
    """Solve the QP with SciPy's SLSQP (cross-check backend)."""
    from scipy import optimize

    n = problem.num_variables
    start = np.zeros(n) if x0 is None else ensure_1d(x0, "x0")
    constraints = []
    if problem.eq_matrix is not None:
        constraints.append(
            {
                "type": "eq",
                "fun": lambda x, A=problem.eq_matrix, b=problem.eq_vector: A @ x - b,
                "jac": lambda x, A=problem.eq_matrix: A,
            }
        )
    if problem.ineq_matrix is not None:
        constraints.append(
            {
                "type": "ineq",
                "fun": lambda x, A=problem.ineq_matrix, b=problem.ineq_vector: A @ x - b,
                "jac": lambda x, A=problem.ineq_matrix: A,
            }
        )
    result = optimize.minimize(
        problem.objective,
        start,
        jac=lambda x: problem.hessian @ x + problem.gradient,
        method="SLSQP",
        constraints=constraints,
        options={"maxiter": 500, "ftol": 1e-12},
    )
    return QPResult(
        x=np.asarray(result.x, dtype=float),
        objective=float(result.fun),
        iterations=int(result.nit),
        converged=bool(result.success),
        message=str(result.message),
    )


def solve_qp(
    problem: QuadraticProgram,
    x0: Optional[np.ndarray] = None,
    *,
    backend: str = "auto",
    active_set: Optional[Sequence[int]] = None,
    workspace: Optional[QPWorkspace] = None,
    max_iterations: int = 500,
    tol: float = 1e-9,
) -> QPResult:
    """Solve a convex QP with the selected backend.

    Backends: ``"active_set"`` (in-repo null-space solver), ``"scipy"``
    (SLSQP), or ``"auto"`` which runs the active-set solver and falls back to
    SciPy if it fails to converge or returns an infeasible point.  The
    ``active_set`` warm start and the shared ``workspace`` apply to the
    active-set backend only.

    Parameters
    ----------
    problem:
        Problem data (see :class:`QuadraticProgram`).
    x0:
        Optional feasible starting point.
    backend:
        One of ``"auto"``, ``"active_set"``, ``"scipy"``.
    active_set, workspace, max_iterations, tol:
        Passed through to :func:`solve_qp_active_set`.

    Returns
    -------
    QPResult
        The best result of the attempted backend(s).
    """
    if backend == "active_set":
        return solve_qp_active_set(
            problem,
            x0,
            active_set=active_set,
            workspace=workspace,
            max_iterations=max_iterations,
            tol=tol,
        )
    if backend == "scipy":
        return _solve_qp_scipy(problem, x0)
    if backend == "auto":
        result = solve_qp_active_set(
            problem,
            x0,
            active_set=active_set,
            workspace=workspace,
            max_iterations=max_iterations,
            tol=tol,
        )
        if result.converged and problem.is_feasible(result.x, tol=1e-6):
            return result
        fallback = _solve_qp_scipy(problem, x0)
        # Keep whichever feasible solution has the lower objective.
        if not fallback.converged:
            return result if result.converged else fallback
        if result.converged and result.objective < fallback.objective:
            return result
        return fallback
    raise ValueError(f"unknown QP backend {backend!r}")
