"""Assembly of the deconvolution optimisation problem.

The cost criterion (eq. 5) is

    C(lambda) = sum_m (G(t_m) - G_hat(t_m))^2 / sigma_m^2
                + lambda * \\int f''(phi)^2 dphi

which, with ``f`` in a spline basis and ``G_hat = A alpha``, is the quadratic

    C(alpha) = (G - A alpha)^T W (G - A alpha) + lambda alpha^T Omega alpha

with ``W = diag(1 / sigma_m^2)``.  Minimising it subject to the linear
constraint rows yields a convex quadratic program solved by
:func:`repro.numerics.qp.solve_qp`.

Because every surrounding workload (lambda grids, cross-validation folds,
bootstrap replicates, multi-species batches) solves long families of these
QPs, the problem object caches the expensive invariants: the weighted design
and Gram matrices, one assembled Hessian per ``lambda``, and one
:class:`~repro.numerics.qp.QPWorkspace` (Cholesky factor plus transformed
constraint rows) per ``lambda``.  :meth:`DeconvolutionProblem.with_measurements`
derives a sibling problem for new data that *shares* all of those caches, so a
bootstrap replicate solve touches nothing but a fresh gradient.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.cellcycle.parameters import CellCycleParameters
from repro.core.constraints import Constraint, ConstraintSet, build_constraint_set
from repro.core.forward import ForwardModel
from repro.numerics.qp import (
    BatchQPResult,
    QPResult,
    QPWorkspace,
    QuadraticProgram,
    prefer_converged,
    solve_qp,
)
from repro.utils.validation import check_positive, ensure_1d


class DeconvolutionProblem:
    """Regularised, constrained least-squares problem for one expression series.

    Parameters
    ----------
    forward:
        Forward model mapping spline coefficients to population measurements.
    measurements:
        Population measurements ``G(t_m)`` at the forward model's times.
    sigma:
        Per-measurement standard deviations ``sigma_m``.  A scalar is
        broadcast; defaults to one (unweighted least squares).
    constraints:
        Constraint objects; defaults to none (use
        :func:`repro.core.constraints.default_constraints` for the paper's
        stack).
    parameters:
        Cell-cycle parameters used by the division constraints.
    ridge:
        Small multiple of the identity added to the Hessian so the QP stays
        strictly convex even when ``lambda`` is tiny and ``A`` is rank
        deficient.
    constraint_set:
        Pre-assembled constraint rows for ``constraints``.  The rows depend
        only on the basis and parameters — not on the measurement grid — so
        an experiment-scoped session assembles them once and hands the same
        set to the problem of every grid; when omitted they are assembled
        here (through the shared, memoised
        :func:`~repro.core.constraints.assembly_context`).
    """

    #: The cache-free sibling :meth:`released_twin` builds on first use.
    _twin: Optional["DeconvolutionProblem"] = None

    def __init__(
        self,
        forward: ForwardModel,
        measurements: np.ndarray,
        *,
        sigma: np.ndarray | float | None = None,
        constraints: Optional[list[Constraint]] = None,
        parameters: Optional[CellCycleParameters] = None,
        ridge: float = 1e-10,
        constraint_set: Optional[ConstraintSet] = None,
    ) -> None:
        self.forward = forward
        self.measurements = ensure_1d(measurements, "measurements")
        if self.measurements.size != forward.num_measurements:
            raise ValueError("measurements length does not match the forward model")
        self.parameters = parameters if parameters is not None else CellCycleParameters()
        self.sigma = self._normalise_sigma(sigma)
        self.constraints = list(constraints) if constraints is not None else []
        self.ridge = check_positive(ridge, "ridge", strict=False)

        self.basis = forward.basis
        self.penalty = self.basis.penalty_matrix()
        if constraint_set is None:
            constraint_set = build_constraint_set(
                self.constraints, self.basis, self.parameters
            )
        elif constraint_set.equality_matrix.shape[1] != self.basis.num_basis:
            raise ValueError("constraint_set does not match the basis size")
        self.constraint_set: ConstraintSet = constraint_set
        self._weights = 1.0 / self.sigma**2
        self._init_solver_caches()

    def _init_solver_caches(self) -> None:
        """Fresh per-design caches (shared by :meth:`with_measurements` copies)."""
        self._weighted_design: Optional[np.ndarray] = None
        self._gram: Optional[np.ndarray] = None
        self._gradient_cache: Optional[np.ndarray] = None
        # Assembled programs are gradient-specific, hence per instance.
        self._programs: dict[float, QuadraticProgram] = {}
        # Keyed by float(lambda); shared (by reference) across sibling
        # problems that differ only in their measurements.
        self._hessians: dict[float, np.ndarray] = {}
        self._workspaces: dict[float, QPWorkspace] = {}
        # Measurement-independent state built by the lambda selectors (GCV
        # eigendecompositions, k-fold plans); shared across siblings so a
        # multi-species batch pays for each factorization once.
        self._selection_caches: dict[object, object] = {}

    def release_solver_caches(self) -> None:
        """Drop this instance's references to the heavyweight solver caches.

        Sibling problems share the per-lambda Hessian/workspace dicts, the
        selection plans and the design products *by reference*; rebinding
        them here (never mutating the shared objects) detaches only this
        instance, so the template and its other siblings keep everything.
        A long-lived holder of one sibling — e.g. a cached service result
        backing its lazy diagnostics — calls this so the factorizations can
        be reclaimed once the owning session is evicted.  Diagnostics
        (``data_misfit``, ``roughness``, prediction, violations) remain
        fully functional; a later solve on this instance would simply
        refactorize from scratch.
        """
        self._weighted_design = None
        self._gram = None
        self._gradient_cache = None
        self._programs = {}
        self._hessians = {}
        self._workspaces = {}
        self._selection_caches = {}

    def _normalise_sigma(self, sigma: np.ndarray | float | None) -> np.ndarray:
        if sigma is None:
            return np.ones_like(self.measurements)
        sigma_arr = np.broadcast_to(np.asarray(sigma, dtype=float), self.measurements.shape).copy()
        if np.any(sigma_arr <= 0) or not np.all(np.isfinite(sigma_arr)):
            raise ValueError("sigma must be positive and finite")
        return sigma_arr

    @property
    def num_coefficients(self) -> int:
        """Number of spline coefficients."""
        return self.forward.num_coefficients

    def data_misfit(self, coefficients: np.ndarray) -> float:
        """Weighted squared residual (first term of eq. 5)."""
        residual = self.measurements - self.forward.predict(coefficients)
        return float(np.sum(self._weights * residual**2))

    def roughness(self, coefficients: np.ndarray) -> float:
        """Roughness ``\\int f''^2`` (second term of eq. 5, without ``lambda``)."""
        coefficients = ensure_1d(coefficients, "coefficients")
        return float(coefficients @ self.penalty @ coefficients)

    def cost(self, coefficients: np.ndarray, lam: float) -> float:
        """Full cost ``C(lambda)`` of eq. 5."""
        return self.data_misfit(coefficients) + float(lam) * self.roughness(coefficients)

    @property
    def weighted_design(self) -> np.ndarray:
        """Row-weighted design matrix ``W A`` (cached)."""
        if self._weighted_design is None:
            self._weighted_design = self.forward.design_matrix * self._weights[:, None]
        return self._weighted_design

    @property
    def gram(self) -> np.ndarray:
        """Weighted Gram matrix ``A^T W A``, exactly symmetrized (cached)."""
        if self._gram is None:
            gram = self.forward.design_matrix.T @ self.weighted_design
            self._gram = 0.5 * (gram + gram.T)
        return self._gram

    def _gradient(self) -> np.ndarray:
        """QP linear term ``-2 A^T W G`` for this problem's measurements."""
        if self._gradient_cache is None:
            self._gradient_cache = -2.0 * (self.weighted_design.T @ self.measurements)
        return self._gradient_cache

    def _hessian(self, lam: float) -> np.ndarray:
        """Assembled (exactly symmetric) QP Hessian for ``lam``, cached."""
        key = float(lam)
        hessian = self._hessians.get(key)
        if hessian is None:
            hessian = 2.0 * (self.gram + key * self.penalty)
            hessian += self.ridge * np.eye(self.num_coefficients)
            self._hessians[key] = hessian
        return hessian

    def quadratic_program(self, lam: float) -> QuadraticProgram:
        """Build the convex QP for a given smoothing parameter.

        The Hessian is cached per ``lambda`` (and shared with sibling
        problems from :meth:`with_measurements`); only the gradient depends
        on the measurements.
        """
        lam = check_positive(lam, "lam", strict=False)
        program = self._programs.get(lam)
        if program is None:
            constraint_set = self.constraint_set
            program = QuadraticProgram(
                hessian=self._hessian(lam),
                gradient=self._gradient(),
                eq_matrix=constraint_set.equality_matrix if constraint_set.has_equalities else None,
                eq_vector=constraint_set.equality_vector if constraint_set.has_equalities else None,
                ineq_matrix=constraint_set.inequality_matrix if constraint_set.has_inequalities else None,
                ineq_vector=constraint_set.inequality_vector if constraint_set.has_inequalities else None,
            )
            self._programs[lam] = program
        return program

    def solver_workspace(self, lam: float) -> Optional[QPWorkspace]:
        """Shared :class:`QPWorkspace` (Cholesky + constraint transform) for ``lam``."""
        key = float(lam)
        workspace = self._workspaces.get(key)
        if workspace is None:
            try:
                workspace = QPWorkspace(self.quadratic_program(key))
            except np.linalg.LinAlgError:
                return None
            self._workspaces[key] = workspace
        return workspace

    def selection_cache(self, key: object, factory, *, fingerprint: object = None):
        """Measurement-independent lambda-selection state, built on demand.

        The cache is shared (by reference) with every sibling from
        :meth:`with_measurements`, so eigendecompositions and fold plans
        computed while selecting ``lambda`` for one species are reused by all
        the others.  Each ``key`` holds one slot: the entry is rebuilt when
        the caller's ``fingerprint`` (e.g. the fold assignment and lambda
        grid a k-fold plan was built for) differs from the stored one, so
        callers that legitimately vary their inputs — a fresh permutation per
        call from a shared ``Generator``, say — replace the slot instead of
        growing the cache without bound.
        """
        entry = self._selection_caches.get(key)
        if entry is not None and entry[0] == fingerprint:
            return entry[1]
        value = factory()
        self._selection_caches[key] = (fingerprint, value)
        return value

    def solve(
        self,
        lam: float,
        *,
        backend: str = "auto",
        x0: np.ndarray | None = None,
        active_set: Sequence[int] | None = None,
    ) -> QPResult:
        """Solve the constrained problem for a given ``lambda``.

        Parameters
        ----------
        lam:
            Smoothing parameter of this solve.
        backend:
            QP backend (see :func:`repro.numerics.qp.solve_qp`).
        x0, active_set:
            Warm start for the active-set backend, e.g. the solution and
            final active set of a neighbouring lambda or a previous
            bootstrap replicate.

        Returns
        -------
        QPResult
            The solve outcome (solution, objective, active set,
            convergence metadata).
        """
        program = self.quadratic_program(lam)
        return solve_qp(
            program,
            x0,
            backend=backend,
            active_set=active_set,
            workspace=self.solver_workspace(lam),
        )

    def solve_batch(
        self,
        lam: float,
        measurement_matrix: np.ndarray,
        *,
        backend: str = "auto",
        shared_active_set: Sequence[int] | None = None,
        tol: float = 1e-9,
    ) -> BatchQPResult:
        """Solve the problem for many measurement vectors in one batched call.

        All columns share this problem family's Hessian, constraint rows and
        per-lambda factorization (:meth:`solver_workspace`): the batch is one
        stacked gradient build plus a multi-RHS
        :meth:`~repro.numerics.qp.QPWorkspace.solve_batch`, with the
        per-problem active-set loop running only for the columns where a
        different set of positivity rows binds.  This is the engine behind
        bootstrap replicates and multi-species ``fit_many`` batches.

        Parameters
        ----------
        lam:
            Smoothing parameter shared by every column.
        measurement_matrix:
            Measurement vectors, shape ``(num_measurements, num_problems)``
            — one column per problem (matching ``fit_many``'s layout).
        backend:
            ``"active_set"`` keeps every column on the in-repo solver;
            ``"auto"`` (default) re-solves columns that fail to converge
            (or land infeasible) with SLSQP, picking as
            :func:`~repro.numerics.qp.solve_qp` does; ``"scipy"`` solves
            every column through the fallback backend.
        shared_active_set:
            Inequality rows expected active for most columns (e.g. a base
            fit's active set when solving its bootstrap replicates).
        tol:
            Verification and active-set tolerance.

        Returns
        -------
        BatchQPResult
            Stacked solutions in column order.
        """
        matrix = np.asarray(measurement_matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != self.measurements.size:
            raise ValueError(
                "measurement_matrix must have shape (num_measurements, num_problems)"
            )
        workspace = self.solver_workspace(lam)
        if workspace is None or backend == "scipy":
            return self._solve_batch_columnwise(lam, matrix, backend)
        gradients = np.ascontiguousarray((-2.0 * (self.weighted_design.T @ matrix)).T)
        batch = workspace.solve_batch(
            gradients, shared_active_set=shared_active_set, tol=tol
        )
        if backend == "auto":
            program = self.quadratic_program(lam)
            for index in range(batch.num_problems):
                # Rows accepted by the batched KKT verification already
                # passed a stricter slack check.  A fallback row is the cold
                # active-set solve, so only the SLSQP re-solve is left to run.
                converged = bool(batch.converged[index])
                if converged and (
                    not batch.fallback[index] or program.is_feasible(batch.x[index], tol=1e-6)
                ):
                    continue
                row = QPResult(
                    batch.x[index], batch.objectives[index], batch.iterations[index], converged
                )
                sibling = self.with_measurements(matrix[:, index]).quadratic_program(lam)
                repaired = prefer_converged(row, solve_qp(sibling, backend="scipy"))
                if repaired is row:
                    continue
                batch.x[index] = repaired.x
                batch.objectives[index] = repaired.objective
                batch.iterations[index] = repaired.iterations
                batch.converged[index] = repaired.converged
                batch.active_sets[index] = list(repaired.active_set)
                batch.fallback[index] = True
        return batch

    def solve_mixed(
        self,
        lams: Sequence[float],
        measurement_matrix: np.ndarray,
        *,
        shared_active_set: Sequence[int] | None = None,
        tol: float = 1e-9,
    ) -> BatchQPResult:
        """Solve a batch whose columns may each have their own lambda.

        :meth:`solve_batch` requires every column to share one lambda, so
        the columns are grouped by distinct lambda and each group is one
        :meth:`solve_batch` call; the group results are scattered back into
        column order.  Every row is therefore exactly the row its group's
        :meth:`solve_batch` returns.  A batch with one distinct lambda is
        that one call; a batch of no columns returns an empty result.

        Parameters
        ----------
        lams:
            Per-column smoothing parameters, length ``num_problems``.
        measurement_matrix:
            Measurement vectors, shape ``(num_measurements, num_problems)``.
        shared_active_set:
            Working-set hint handed to every group's :meth:`solve_batch`.
        tol:
            Verification and active-set tolerance.

        Returns
        -------
        BatchQPResult
            Stacked solutions in column order.
        """
        matrix = np.asarray(measurement_matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != self.measurements.size:
            raise ValueError(
                "measurement_matrix must have shape (num_measurements, num_problems)"
            )
        lams = np.asarray(list(lams), dtype=float)
        if lams.shape != (matrix.shape[1],):
            raise ValueError("lams must provide one lambda per measurement column")
        distinct, inverse = np.unique(lams, return_inverse=True)
        if distinct.size == 1:
            return self.solve_batch(
                float(distinct[0]), matrix, shared_active_set=shared_active_set, tol=tol
            )
        num_problems = matrix.shape[1]
        x = np.zeros((num_problems, self.num_coefficients))
        objectives = np.zeros(num_problems)
        iterations = np.zeros(num_problems, dtype=int)
        converged = np.zeros(num_problems, dtype=bool)
        active_sets: list[list[int]] = [[] for _ in range(num_problems)]
        fallback = np.zeros(num_problems, dtype=bool)
        for group, lam in enumerate(distinct):
            columns = np.flatnonzero(inverse == group)
            batch = self.solve_batch(
                float(lam), matrix[:, columns], shared_active_set=shared_active_set, tol=tol
            )
            x[columns] = batch.x
            objectives[columns] = batch.objectives
            iterations[columns] = batch.iterations
            converged[columns] = batch.converged
            fallback[columns] = batch.fallback
            for row, column in enumerate(columns.tolist()):
                active_sets[column] = batch.active_sets[row]
        return BatchQPResult(
            x=x,
            objectives=objectives,
            iterations=iterations,
            converged=converged,
            active_sets=active_sets,
            fallback=fallback,
        )

    def _solve_batch_columnwise(
        self, lam: float, matrix: np.ndarray, backend: str
    ) -> BatchQPResult:
        """Column-at-a-time batch fallback (SciPy backend, indefinite Hessian)."""
        results = [
            self.with_measurements(matrix[:, index]).solve(lam, backend=backend)
            for index in range(matrix.shape[1])
        ]
        num_problems = len(results)
        return BatchQPResult(
            x=np.array([result.x for result in results])
            if num_problems
            else np.zeros((0, self.num_coefficients)),
            objectives=np.array([result.objective for result in results]),
            iterations=np.array([result.iterations for result in results], dtype=int),
            converged=np.array([result.converged for result in results], dtype=bool),
            active_sets=[list(result.active_set) for result in results],
            fallback=np.ones(num_problems, dtype=bool),
        )

    def with_measurements(self, measurements: np.ndarray) -> "DeconvolutionProblem":
        """Sibling problem for new measurements sharing every solver cache.

        The forward model, penalty, constraint rows, weighted design, Gram
        matrix and the per-lambda Hessian/workspace caches are all shared by
        reference; only the measurement vector (and hence the QP gradient)
        changes.  This is the fast path for bootstrap replicates and
        multi-species fits.
        """
        measurements = ensure_1d(measurements, "measurements")
        if measurements.size != self.measurements.size:
            raise ValueError("measurements length does not match the problem")
        return self._sibling(measurements)

    def check_columns(self, measurement_matrix: np.ndarray) -> None:
        """Validate a matrix of measurement columns once.

        Row count and finiteness are checked for the whole matrix, with
        :meth:`with_measurements`' error messages, so a bad column fails
        the batch before any solve and a column's sibling (:meth:`_sibling`,
        built only when needed) skips the per-vector validation.
        """
        matrix = np.asarray(measurement_matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("measurement_matrix must be two-dimensional")
        if matrix.shape[0] != self.measurements.size:
            raise ValueError("measurements length does not match the problem")
        if not np.isfinite(matrix).all():
            raise ValueError("measurements contains non-finite entries")

    def _sibling(self, measurements: np.ndarray) -> "DeconvolutionProblem":
        """Non-validating constructor behind :meth:`with_measurements`.

        ``measurements`` must already be a finite 1-D float array of the
        right length.
        """
        sibling = DeconvolutionProblem.__new__(DeconvolutionProblem)
        sibling.forward = self.forward
        sibling.measurements = measurements
        sibling.parameters = self.parameters
        sibling.sigma = self.sigma
        sibling.constraints = self.constraints
        sibling.ridge = self.ridge
        sibling.basis = self.basis
        sibling.penalty = self.penalty
        sibling.constraint_set = self.constraint_set
        sibling._weights = self._weights
        # Force the lazy matrices on the parent so every sibling genuinely
        # shares them instead of copying an unpopulated None slot.
        sibling._weighted_design = self.weighted_design
        sibling._gram = self.gram
        sibling._gradient_cache = None
        sibling._programs = {}
        sibling._hessians = self._hessians
        sibling._workspaces = self._workspaces
        sibling._selection_caches = self._selection_caches
        return sibling

    def released_twin(self) -> "DeconvolutionProblem":
        """A sibling of this problem that holds none of its solver caches.

        Built once per problem and then shared.  It keeps the forward model,
        basis, weights and constraint rows, so a long-lived batched result
        that has not built its own sibling
        (:meth:`~repro.core.result.DeconvolutionResult.release_backing_caches`)
        rebinds its template to the twin: its lazy diagnostics still work,
        and the per-lambda factorizations and selection plans of this
        problem are not pinned by it.
        """
        twin = self._twin
        if twin is None:
            twin = self._sibling(self.measurements)
            twin.release_solver_caches()
            self._twin = twin
        return twin

    def restrict(self, indices: np.ndarray) -> "DeconvolutionProblem":
        """Problem restricted to a subset of measurements (for cross-validation)."""
        indices = np.asarray(indices, dtype=int)
        restricted = DeconvolutionProblem.__new__(DeconvolutionProblem)
        restricted.forward = self.forward.restrict(indices)
        restricted.measurements = self.measurements[indices]
        restricted.parameters = self.parameters
        restricted.sigma = self.sigma[indices]
        restricted.constraints = self.constraints
        restricted.ridge = self.ridge
        restricted.basis = self.basis
        restricted.penalty = self.penalty
        restricted.constraint_set = self.constraint_set
        restricted._weights = 1.0 / restricted.sigma**2
        restricted._init_solver_caches()
        return restricted
