"""High-level deconvolution facade.

:class:`Deconvolver` is the public entry point of the library: given a
volume-density kernel (or the ingredients to build one) it turns a
population-level expression time series into an estimate of the synchronous
single-cell profile ``f(phi)``, handling basis construction, constraint
assembly, smoothing-parameter selection and the constrained QP solve.

Repeated fits share everything reusable through an experiment-scoped
:class:`~repro.core.session.FitSession`: kernels, forward models and template
problems (with their per-lambda QP factorizations and selection plans) are
cached per measurement grid, and multi-species batches and bootstrap
replicates ride one stacked multi-RHS solve.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro import config
from repro.cellcycle.kernel import KernelBuilder, VolumeKernel
from repro.cellcycle.parameters import CellCycleParameters
from repro.core.basis import SplineBasis
from repro.core.constraints import Constraint, default_constraints
from repro.core.lambda_selection import (
    default_lambda_grid,
    generalized_cross_validation_batch,
    select_lambda,
)
from repro.core.problem import DeconvolutionProblem
from repro.core.result import DeconvolutionResult
from repro.core.session import FitSession, FitWorkspace
from repro.utils.rng import SeedLike
from repro.utils.validation import check_lambda_grid, ensure_1d

__all__ = ["Deconvolver", "FitSession", "FitWorkspace"]


class Deconvolver:
    """In-silico synchronisation of population expression time series.

    Parameters
    ----------
    kernel:
        Pre-built volume-density kernel whose times match the measurements to
        be deconvolved.  If omitted, a kernel is built on demand from
        ``parameters`` with :class:`~repro.cellcycle.kernel.KernelBuilder`.
    parameters:
        Cell-cycle parameters (used both for kernel construction and for the
        division constraints); defaults to the paper's Caulobacter values.
    num_basis:
        Number of natural-cubic-spline basis functions for ``f(phi)``.
    constraints:
        Constraint objects; defaults to the paper's full stack (positivity,
        RNA conservation, rate continuity).
    kernel_builder:
        Optional pre-configured builder used when ``kernel`` is omitted.
    """

    def __init__(
        self,
        kernel: Optional[VolumeKernel] = None,
        *,
        parameters: Optional[CellCycleParameters] = None,
        num_basis: int = config.DEFAULT_NUM_BASIS,
        constraints: Optional[Sequence[Constraint]] = None,
        kernel_builder: Optional[KernelBuilder] = None,
    ) -> None:
        self.parameters = parameters if parameters is not None else CellCycleParameters()
        self.kernel = kernel
        self.kernel_builder = kernel_builder
        self.basis = SplineBasis(num_basis=num_basis)
        if constraints is None:
            self.constraints: list[Constraint] = default_constraints()
        else:
            self.constraints = list(constraints)
        self._session: Optional[FitSession] = None

    def ensure_kernel(self, times: np.ndarray, rng: SeedLike = 0) -> VolumeKernel:
        """Return a kernel matching ``times``, building one if necessary."""
        times = ensure_1d(times, "times")
        if self.kernel is not None:
            if self.kernel.times.size != times.size or not np.allclose(self.kernel.times, times):
                raise ValueError(
                    "the provided kernel's measurement times do not match the data times"
                )
            return self.kernel
        builder = self.kernel_builder
        if builder is None:
            builder = KernelBuilder(self.parameters)
        self.kernel = builder.build(times, rng)
        return self.kernel

    def session(self, *, fresh: bool = False) -> FitSession:
        """Experiment-scoped :class:`FitSession` owning every reusable cache.

        The session is created lazily and kept while the deconvolver's
        (public) kernel/basis/parameters/constraints attributes are
        unchanged; replacing any of them between fits transparently starts a
        fresh session, so stale factorizations can never leak across
        configurations.  ``fresh=True`` forces a new session (dropping every
        per-grid cache), e.g. to bound memory in a long-lived service.
        """
        if fresh or self._session is None or not self._session.matches(self):
            self._session = FitSession(self)
        return self._session

    def fit_workspace(
        self,
        times: np.ndarray,
        *,
        sigma: np.ndarray | float | None = None,
        rng: SeedLike = 0,
    ) -> FitWorkspace:
        """Shared workspace for repeated fits on one (times, sigma) grid.

        Workspaces live in the :meth:`session`, which retains one per grid:
        asking for any previously seen grid returns the original workspace
        object with all of its factorizations.
        """
        return self.session().workspace(times, sigma=sigma, rng=rng)

    def build_problem(
        self,
        times: np.ndarray,
        measurements: np.ndarray,
        *,
        sigma: np.ndarray | float | None = None,
        rng: SeedLike = 0,
    ) -> DeconvolutionProblem:
        """Assemble the optimisation problem for a measurement series."""
        measurements = ensure_1d(measurements, "measurements")
        workspace = self.fit_workspace(times, sigma=sigma, rng=rng)
        return workspace.problem_for(measurements)

    def fit(
        self,
        times: np.ndarray,
        measurements: np.ndarray,
        *,
        sigma: np.ndarray | float | None = None,
        lam: float | None = None,
        lambda_method: str = "gcv",
        lambda_grid: np.ndarray | None = None,
        rng: SeedLike = 0,
    ) -> DeconvolutionResult:
        """Deconvolve one population expression time series.

        Parameters
        ----------
        times:
            Measurement times in minutes.
        measurements:
            Population expression values ``G(t_m)``.
        sigma:
            Measurement standard deviations (scalar or per measurement);
            defaults to uniform weighting.
        lam:
            Fixed smoothing parameter.  When ``None`` the parameter is
            selected automatically with ``lambda_method``.
        lambda_method:
            ``"gcv"`` or ``"kfold"``; used only when ``lam`` is ``None``.
        lambda_grid:
            Candidate grid for the automatic selection: 1-D, non-empty,
            finite and ``>= 0`` (checked only when ``lam`` is ``None``).
        rng:
            Seed for kernel construction (when needed) and CV fold assignment.

        Returns
        -------
        DeconvolutionResult
            The fitted profile plus diagnostics.
        """
        problem = self.build_problem(times, measurements, sigma=sigma, rng=rng)

        lambda_path: dict[float, float] = {}
        if lam is None:
            selection = select_lambda(problem, lambda_grid, method=lambda_method, rng=rng)
            lam = selection.best_lambda
            lambda_path = selection.scores

        qp_result = problem.solve(float(lam))
        # Derived diagnostics (fitted values, misfit, roughness, constraint
        # violations) are left to the result's lazy properties, backed by the
        # problem reference.
        return self._package(
            problem,
            lam,
            qp_result.x,
            qp_result.converged,
            qp_result.iterations,
            qp_result.active_set,
            ensure_1d(times, "times").copy(),
            problem.measurements.copy(),
            lambda_path,
        )

    def _package(
        self,
        problem: DeconvolutionProblem,
        lam: float,
        coefficients: np.ndarray,
        converged: bool,
        iterations: int,
        active_set: Sequence[int],
        times: np.ndarray,
        measurements: np.ndarray,
        lambda_path: dict[float, float],
        template: DeconvolutionProblem | None = None,
        row: np.ndarray | None = None,
    ) -> DeconvolutionResult:
        """The one :class:`DeconvolutionResult` constructor call of every path.

        ``times`` and ``measurements`` must be arrays the result may own.  A
        batched column without its own sibling passes ``problem=None``, the
        batch ``template`` and its measurement ``row`` (an array no caller
        can reach): the result builds the sibling from the two when a
        diagnostic is first read.
        """
        result = DeconvolutionResult(
            coefficients=coefficients,
            basis=self.basis,
            lam=float(lam),
            times=times,
            measurements=measurements,
            solver_converged=converged,
            solver_iterations=iterations,
            lambda_path=lambda_path,
            mean_cycle_time=self.parameters.mean_cycle_time,
            solver_active_set=list(active_set),
            problem=problem,
        )
        if problem is None:
            result._template = template
            result._row = row
        return result

    def fit_many(
        self,
        times: np.ndarray,
        measurement_matrix: np.ndarray,
        *,
        sigma: np.ndarray | float | None = None,
        lam: float | None = None,
        lambda_method: str = "gcv",
        lambda_grid: np.ndarray | None = None,
        rng: SeedLike = 0,
    ) -> list[DeconvolutionResult]:
        """Deconvolve several species sharing the same measurement times.

        ``measurement_matrix`` has one column per species.  All species share
        the kernel, design matrix, constraint rows, per-lambda QP
        factorizations *and* the lambda search's eigendecompositions (the GCV
        pencil, the k-fold per-fold plans) through one :class:`FitWorkspace`
        and its template problem.  After lambda selection, every column is
        one row of a single
        :meth:`~repro.core.problem.DeconvolutionProblem.solve_mixed` call: one
        multi-RHS solve per distinct lambda.  The active-set loop only runs
        for the columns where positivity binds differently.

        Parameters
        ----------
        times, sigma, lambda_method, lambda_grid, rng:
            As in :meth:`fit`, applied to every species.
        lam:
            Fixed smoothing parameter(s): a scalar applies to every species,
            a sequence gives one entry per column (entries may be ``None``
            to request automatic selection for that species), and ``None``
            selects automatically for every species.  Mixed-lambda batches
            let service callers solve heterogeneous traffic on one grid as
            a single call.

        Returns
        -------
        list[DeconvolutionResult]
            One result per species, in column order.
        """
        matrix = np.asarray(measurement_matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("measurement_matrix must be two-dimensional")
        num_species = matrix.shape[1]

        if lam is None or np.ndim(lam) == 0:
            requested: list[float | None] = [
                None if lam is None else float(lam)
            ] * num_species
        else:
            requested = [None if value is None else float(value) for value in lam]
            if len(requested) != num_species:
                raise ValueError("per-species lam must have one entry per column")

        times = ensure_1d(times, "times")
        workspace = self.fit_workspace(times, sigma=sigma, rng=rng)
        template = workspace.template
        # One up-front check of the whole matrix (before any solve); the
        # siblings and results below skip per-vector validation.  A column
        # gets its own sibling problem only where a selection needs one; the
        # other results build theirs on first use.
        template.check_columns(matrix)
        problems: list[DeconvolutionProblem | None] = [None] * num_species

        def problem_for(column: int) -> DeconvolutionProblem:
            if problems[column] is None:
                problems[column] = template._sibling(matrix[:, column])
            return problems[column]

        lams: list[float] = []
        paths: list[dict[float, float]] = []
        unselected = [column for column, value in enumerate(requested) if value is None]
        if len(unselected) > 1 and lambda_method == "gcv":
            # The whole batch is GCV-scored in one tensor pass off the shared
            # eigendecomposition; see generalized_cross_validation_batch.
            grid = default_lambda_grid() if lambda_grid is None else check_lambda_grid(lambda_grid)
            selections = iter(
                generalized_cross_validation_batch(template, matrix[:, unselected], grid)
            )
        else:
            selections = None
        for column in range(num_species):
            if requested[column] is not None:
                lams.append(float(requested[column]))
                paths.append({})
            elif selections is not None:
                selection = next(selections)
                lams.append(float(selection.best_lambda))
                paths.append(selection.scores)
            else:
                # k-fold selection runs serially: the per-grid fold plans
                # live in shared caches that the first species fills and the
                # rest reuse.
                selection = select_lambda(
                    problem_for(column), lambda_grid, method=lambda_method, rng=rng
                )
                lams.append(float(selection.best_lambda))
                paths.append(selection.scores)

        batch = template.solve_mixed(lams, matrix)
        # Results are views of the stacked solve arrays, each owning one row
        # of a stacked copy of the (validated) times and measurements:
        # writing to one result's arrays never touches its batch neighbours,
        # the caller's matrix or the rows a result without a sibling builds
        # it from.
        stacked_times = np.repeat(times[None, :], num_species, axis=0)
        rows = matrix.T.copy()
        stacked_measurements = rows.copy()
        converged = batch.converged.tolist()
        iterations = batch.iterations.tolist()
        return [
            self._package(
                problems[column],
                lams[column],
                batch.x[column],
                converged[column],
                iterations[column],
                batch.active_sets[column],
                stacked_times[column],
                stacked_measurements[column],
                paths[column],
                template,
                rows[column],
            )
            for column in range(num_species)
        ]
