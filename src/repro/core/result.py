"""Deconvolution result container with lazily computed diagnostics."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.basis import SplineBasis
from repro.utils.validation import ensure_1d

if TYPE_CHECKING:  # pragma: no cover - import cycle broken for typing only
    from repro.core.problem import DeconvolutionProblem


class DeconvolutionResult:
    """Estimated synchronous expression profile and fit metadata.

    Diagnostics that are derived from the coefficients — ``fitted``,
    ``data_misfit``, ``roughness``, ``constraint_violations``, ``sigma`` —
    may be passed eagerly or left to be computed on first access from the
    ``problem`` the fit was solved on.  Laziness keeps the per-fit cost of
    high-throughput paths (multi-species batches, bootstrap replicates, the
    service scheduler) down to the solve itself; accessing a lazy attribute
    always yields exactly the value the eager path would have stored.

    Parameters
    ----------
    coefficients:
        Spline coefficients ``alpha`` of the estimated profile.
    basis:
        The spline basis the coefficients refer to.
    lam:
        Smoothing parameter used for the final fit.
    times:
        Population measurement times (minutes).
    measurements:
        Observed population values ``G(t_m)``.
    fitted:
        Model-predicted population values ``G_hat(t_m)``; computed from
        ``problem`` when omitted.
    sigma:
        Measurement standard deviations used as weights; taken from
        ``problem`` when omitted.
    data_misfit:
        Weighted squared residual of the fit; computed from ``problem``
        when omitted.
    roughness:
        Roughness ``\\int f''^2`` of the estimate; computed from ``problem``
        when omitted.
    solver_converged:
        Whether the QP solver reported convergence.
    solver_iterations:
        Iterations used by the QP solver.
    lambda_path:
        Optional record of the lambda-selection scores (lambda -> score).
    mean_cycle_time:
        Mean cell-cycle time used to convert phase to "simulated time".
    constraint_violations:
        Residual constraint violations at the solution; computed from
        ``problem`` when omitted.
    solver_active_set:
        Inequality constraints active at the solution; warm-starts related
        solves (bootstrap replicates, neighbouring lambdas, sibling species).
    problem:
        The :class:`~repro.core.problem.DeconvolutionProblem` the result was
        solved on; required only when one of the lazy attributes above is
        omitted.

    Batched fits leave ``problem`` out and set ``_template`` (the batch's
    shared template problem) and ``_row`` (a private copy of this column's
    measurements) instead: such a result builds its own sibling problem
    from the two only when a lazy diagnostic is first read.
    """

    #: Template problem and measurement row of a batched fit whose sibling
    #: is not built yet.
    _template: Optional["DeconvolutionProblem"] = None
    _row: Optional[np.ndarray] = None

    def __init__(
        self,
        coefficients: np.ndarray,
        basis: SplineBasis,
        lam: float,
        times: np.ndarray,
        measurements: np.ndarray,
        fitted: Optional[np.ndarray] = None,
        sigma: Optional[np.ndarray] = None,
        data_misfit: Optional[float] = None,
        roughness: Optional[float] = None,
        solver_converged: bool = True,
        solver_iterations: int = 0,
        lambda_path: Optional[dict] = None,
        mean_cycle_time: float = 150.0,
        constraint_violations: Optional[dict] = None,
        solver_active_set: Optional[list] = None,
        problem: Optional["DeconvolutionProblem"] = None,
    ) -> None:
        self.coefficients = coefficients
        self.basis = basis
        self.lam = lam
        self.times = times
        self.measurements = measurements
        self.solver_converged = solver_converged
        self.solver_iterations = solver_iterations
        self.lambda_path = {} if lambda_path is None else lambda_path
        self.mean_cycle_time = mean_cycle_time
        self.solver_active_set = [] if solver_active_set is None else solver_active_set
        self._problem = problem
        self._fitted = fitted
        self._sigma = sigma
        self._data_misfit = data_misfit
        self._roughness = roughness
        self._constraint_violations = constraint_violations

    def release_backing_caches(self) -> "DeconvolutionResult":
        """Keep lazy diagnostics but stop pinning solver factorizations.

        The backing problem drops its references to the shared per-lambda
        factorization caches and design products
        (:meth:`~repro.core.problem.DeconvolutionProblem.release_solver_caches`
        — the owning session keeps its own), so holding this result
        long-term, e.g. in the service result cache, does not keep solver
        state alive past session/pool eviction.  A batched result that has
        not built its sibling yet swaps its template for the template's one
        released twin
        (:meth:`~repro.core.problem.DeconvolutionProblem.released_twin`).
        Costs a few attribute rebinds, no materialization.  Returns ``self``
        for chaining.
        """
        if self._problem is not None:
            self._problem.release_solver_caches()
        elif self._template is not None:
            self._template = self._template.released_twin()
        return self

    def _materialize(self) -> None:
        """Force every lazy diagnostic to its concrete value.

        The single list of lazily computed attributes; :meth:`detach` and
        pickling both rely on it, so a new lazy diagnostic only needs to be
        added here.
        """
        _ = (
            self.fitted,
            self.sigma,
            self.data_misfit,
            self.roughness,
            self.constraint_violations,
        )

    def detach(self) -> "DeconvolutionResult":
        """Materialize every lazy diagnostic and drop the backing problem.

        Afterwards the result is self-contained: it no longer pins the
        problem's factorization caches or the owning session's arrays in
        memory.  Long-lived holders of results (the service result cache,
        archives) detach so that session/pool eviction can actually reclaim
        memory.  Returns ``self`` for chaining.
        """
        if self._problem is not None or self._template is not None:
            self._materialize()
            self._problem = self._template = self._row = None
        return self

    def __getstate__(self) -> dict:
        """Materialize via :meth:`detach` semantics for pickling.

        Problems hold LAPACK factorization workspaces that cannot (and
        should not) cross pickle boundaries; a pickled result is therefore
        fully materialized and self-contained.
        """
        if self._problem is not None or self._template is not None:
            self._materialize()
        state = self.__dict__.copy()
        state["_problem"] = None
        state.pop("_template", None)
        state.pop("_row", None)
        return state

    def _backing(self) -> Optional["DeconvolutionProblem"]:
        """The backing problem, built from the batch template on first use.

        ``_problem`` is bound before ``_template`` is cleared, so a reader on
        another thread that finds neither template nor problem on its first
        look finds the problem on the second.
        """
        if self._problem is None:
            template = self._template
            if template is not None:
                # ``_row`` stays: it is the sibling's measurement vector now.
                self._problem = template._sibling(self._row)
                self._template = None
        return self._problem

    def _require_problem(self, attribute: str) -> "DeconvolutionProblem":
        """The backing problem, or a clear error when it was never attached."""
        problem = self._backing()
        if problem is None:
            raise AttributeError(
                f"{attribute} was not provided and no problem is attached to compute it from"
            )
        return problem

    @property
    def fitted(self) -> np.ndarray:
        """Model-predicted population values ``G_hat(t_m)``."""
        if self._fitted is None:
            problem = self._require_problem("fitted")
            self._fitted = problem.forward.predict(self.coefficients)
        return self._fitted

    @property
    def sigma(self) -> np.ndarray:
        """Measurement standard deviations used as weights."""
        if self._sigma is None:
            self._sigma = self._require_problem("sigma").sigma.copy()
        return self._sigma

    @property
    def data_misfit(self) -> float:
        """Weighted squared residual of the fit."""
        if self._data_misfit is None:
            problem = self._require_problem("data_misfit")
            self._data_misfit = problem.data_misfit(self.coefficients)
        return self._data_misfit

    @property
    def roughness(self) -> float:
        """Roughness ``\\int f''^2`` of the estimate."""
        if self._roughness is None:
            problem = self._require_problem("roughness")
            self._roughness = problem.roughness(self.coefficients)
        return self._roughness

    @property
    def constraint_violations(self) -> dict:
        """Residual equality/inequality violations at the solution.

        Empty for hand-built results without an attached problem (matching
        the pre-lazy default).
        """
        if self._constraint_violations is None:
            problem = self._backing()
            if problem is None:
                self._constraint_violations = {}
            else:
                self._constraint_violations = problem.constraint_set.violations(
                    self.coefficients
                )
        return self._constraint_violations

    def profile(self, phases: np.ndarray | float) -> np.ndarray | float:
        """Evaluate the deconvolved profile ``f(phi)`` at the given phases."""
        scalar = np.ndim(phases) == 0
        phases_arr = np.atleast_1d(np.asarray(phases, dtype=float))
        values = self.basis.profile(self.coefficients, phases_arr)
        return float(values[0]) if scalar else values

    def profile_derivative(self, phases: np.ndarray | float) -> np.ndarray | float:
        """Evaluate the derivative ``f'(phi)`` of the deconvolved profile."""
        scalar = np.ndim(phases) == 0
        phases_arr = np.atleast_1d(np.asarray(phases, dtype=float))
        values = self.basis.profile_derivative(self.coefficients, phases_arr)
        return float(values[0]) if scalar else values

    def profile_on_grid(self, num_points: int = 201) -> tuple[np.ndarray, np.ndarray]:
        """Profile sampled on a uniform phase grid; returns ``(phases, values)``."""
        phases = np.linspace(0.0, 1.0, int(num_points))
        return phases, self.profile(phases)

    def profile_vs_time(self, num_points: int = 201) -> tuple[np.ndarray, np.ndarray]:
        """Profile against "simulated time" (phase scaled by the mean cycle time).

        This is the scaling used for the bottom panel of Fig. 5 in the paper.
        """
        phases, values = self.profile_on_grid(num_points)
        return phases * self.mean_cycle_time, values

    @property
    def residuals(self) -> np.ndarray:
        """Raw residuals ``G - G_hat``."""
        return self.measurements - self.fitted

    @property
    def weighted_residuals(self) -> np.ndarray:
        """Residuals divided by the measurement standard deviations."""
        return self.residuals / self.sigma

    def cost(self) -> float:
        """Value of the paper's cost criterion (eq. 5) at the estimate."""
        return self.data_misfit + self.lam * self.roughness

    def rmse_against(self, phases: np.ndarray, truth: np.ndarray) -> float:
        """Root-mean-square error of the profile against a known ground truth."""
        phases = ensure_1d(phases, "phases")
        truth = ensure_1d(truth, "truth")
        if phases.size != truth.size:
            raise ValueError("phases and truth must have the same length")
        estimate = self.profile(phases)
        return float(np.sqrt(np.mean((estimate - truth) ** 2)))

    def summary(self) -> str:
        """Short human-readable fit summary."""
        lines = [
            "DeconvolutionResult:",
            f"  basis functions      : {self.basis.num_basis}",
            f"  lambda               : {self.lam:.4g}",
            f"  data misfit          : {self.data_misfit:.6g}",
            f"  roughness            : {self.roughness:.6g}",
            f"  cost                 : {self.cost():.6g}",
            f"  solver converged     : {self.solver_converged}",
            f"  solver iterations    : {self.solver_iterations}",
        ]
        if self.constraint_violations:
            eq = self.constraint_violations.get("equality", 0.0)
            ineq = self.constraint_violations.get("inequality", 0.0)
            lines.append(f"  constraint violation : eq {eq:.3g}, ineq {ineq:.3g}")
        return "\n".join(lines)
