"""Experiment-scoped fit session: cross-grid caching of the solve state.

A :class:`FitSession` owns every reusable artifact of one experiment
configuration — Monte-Carlo kernels, forward models, assembled template
problems (and through them the per-lambda Hessian/Cholesky factorizations and
lambda-selection plans) — keyed by the fingerprint of the measurement time
grid, so ``N`` species measured on ``M`` time grids pay kernel construction
and problem assembly once **per grid** instead of once per fit.  The session
is the layer the :class:`~repro.core.deconvolver.Deconvolver` facade, the
experiment drivers and the CLI all route through; a
:class:`FitWorkspace` is merely the session's per-grid view.  Callers
batch fits themselves: :meth:`~repro.core.deconvolver.Deconvolver.fit_many`
solves the columns of one :func:`fit_options_bucket` together, and the
service scheduler coalesces concurrent requests on the same key.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.cellcycle.kernel import KernelBuilder, VolumeKernel
from repro.core.constraints import ConstraintSet, build_constraint_set
from repro.core.forward import ForwardModel
from repro.core.problem import DeconvolutionProblem
from repro.utils.rng import SeedLike
from repro.utils.validation import ensure_1d

if TYPE_CHECKING:  # pragma: no cover - import cycle broken for typing only
    from repro.core.deconvolver import Deconvolver
    from repro.core.result import DeconvolutionResult


def times_fingerprint(times: np.ndarray) -> bytes:
    """Hashable identity of a measurement time grid."""
    return np.ascontiguousarray(np.asarray(times, dtype=float)).tobytes()


def sigma_fingerprint(times: np.ndarray, sigma: np.ndarray | float | None) -> bytes:
    """Hashable identity of a sigma specification on a given time grid."""
    if sigma is None:
        return b"uniform"
    sigma_arr = np.ascontiguousarray(
        np.broadcast_to(np.asarray(sigma, dtype=float), np.shape(times))
    )
    return sigma_arr.tobytes()


def fit_options_bucket(
    times: np.ndarray,
    sigma: np.ndarray | float | None,
    lam: float | None,
    lambda_method: str,
    lambda_grid: np.ndarray | None,
) -> tuple:
    """Grouping key of one fit's options: fits sharing it batch together.

    Fixed-lambda fits on one ``(times, sigma)`` grid share a bucket
    regardless of their lambda values — :meth:`Deconvolver.fit_many` accepts
    a per-species lambda sequence and groups by lambda internally — while
    selection fits also group by method and candidate grid (those steer the
    scoring pass).  This is the single source of truth for batch
    compatibility; the service scheduler's coalescing keys on it.
    """
    times = np.asarray(times, dtype=float)
    times_key = times_fingerprint(times)
    sigma_key = sigma_fingerprint(times, sigma)
    if lam is not None:
        return (times_key, sigma_key, "fixed")
    if lambda_grid is None:
        return (times_key, sigma_key, "select", lambda_method, b"default")
    # The shape too: ``[[1, 2]]`` and ``[1, 2]`` have the same bytes.
    grid = np.ascontiguousarray(lambda_grid, dtype=float)
    return (times_key, sigma_key, "select", lambda_method, grid.tobytes(), grid.shape)


class FitWorkspace:
    """Per-grid view of a :class:`FitSession`.

    Holds the session-owned kernel and forward model for one
    ``(times, sigma)`` measurement grid plus a template
    :class:`~repro.core.problem.DeconvolutionProblem` whose solver caches
    (weighted design, Gram, per-lambda Hessian/Cholesky factorizations,
    selection plans) every fit on the grid shares through
    :meth:`~repro.core.problem.DeconvolutionProblem.with_measurements`.
    Workspaces are built and cached by :meth:`FitSession.workspace`; this
    class assembles nothing itself beyond the template problem.
    """

    def __init__(
        self,
        session: "FitSession",
        times: np.ndarray,
        sigma: np.ndarray | float | None,
        kernel: VolumeKernel,
        forward: ForwardModel,
    ) -> None:
        self.session = session
        self.times = ensure_1d(times, "times").copy()
        self.kernel = kernel
        self.forward = forward
        self.template = DeconvolutionProblem(
            forward,
            np.zeros(forward.num_measurements),
            sigma=sigma,
            constraints=session.constraints,
            parameters=session.parameters,
            constraint_set=session.constraint_set,
        )
        # Identity snapshot of the configuration this workspace froze; kept
        # for compatibility with pre-session callers (the session holds the
        # authoritative copy).
        self.source_state = session.source_state

    def matches(self, deconvolver: "Deconvolver") -> bool:
        """Whether this workspace still reflects the deconvolver's config."""
        return self.session.matches(deconvolver)

    def problem_for(self, measurements: np.ndarray) -> DeconvolutionProblem:
        """Problem instance for one measurement vector, sharing all caches."""
        return self.template.with_measurements(measurements)

    @staticmethod
    def cache_key(
        times: np.ndarray, sigma: np.ndarray | float | None
    ) -> tuple[bytes, bytes]:
        """Hashable identity of a (times, sigma) measurement grid."""
        times = np.asarray(times, dtype=float)
        return times_fingerprint(times), sigma_fingerprint(times, sigma)


class FitSession:
    """Shared solve state for every fit of one experiment configuration.

    Parameters
    ----------
    deconvolver:
        The configured facade whose kernel/basis/parameters/constraints the
        session snapshots.  Constructing a session adopts it as the
        facade's active session; it stays valid while those (public)
        attributes are unchanged — :meth:`matches` — and
        :meth:`Deconvolver.session` transparently replaces it otherwise.

    Notes
    -----
    Unlike the pre-session single-slot workspace cache, a session retains
    **every** measurement grid it has seen: revisiting a grid returns the
    original workspace object with all of its factorizations.  Sigma
    variants of one time grid share the kernel and the forward model (the
    design matrix is sigma independent); only the template problem is
    per-(times, sigma).
    """

    def __init__(self, deconvolver: "Deconvolver") -> None:
        self.deconvolver = deconvolver
        self.parameters = deconvolver.parameters
        self.basis = deconvolver.basis
        self.constraints = list(deconvolver.constraints)
        self.source_state = (
            deconvolver.kernel,
            deconvolver.basis,
            deconvolver.parameters,
            tuple(deconvolver.constraints),
        )
        self._explicit_kernel = deconvolver.kernel
        self._kernels: dict[bytes, VolumeKernel] = {}
        if deconvolver.kernel is not None:
            self._kernels[times_fingerprint(deconvolver.kernel.times)] = deconvolver.kernel
        self._forwards: dict[bytes, ForwardModel] = {}
        self._workspaces: dict[tuple[bytes, bytes], FitWorkspace] = {}
        self._constraint_set: ConstraintSet | None = None
        # Usage counters surfaced by stats(); the service layer's pool and
        # scheduler read them for telemetry and size accounting.
        self._workspace_hits = 0
        self._workspace_misses = 0
        self._kernel_builds = 0
        # Constructing a session adopts it as the deconvolver's active one,
        # so fits delegated through the facade (fit, fit_many) route
        # back into *this* session's caches rather than a parallel one.
        deconvolver._session = self

    # ------------------------------------------------------------------
    # Cache inspection / invalidation
    # ------------------------------------------------------------------

    def matches(self, deconvolver: "Deconvolver") -> bool:
        """Whether this session still reflects the deconvolver's config."""
        kernel, basis, parameters, constraints = self.source_state
        return (
            deconvolver.kernel is kernel
            and deconvolver.basis is basis
            and deconvolver.parameters is parameters
            and tuple(deconvolver.constraints) == constraints
        )

    @property
    def num_grids(self) -> int:
        """Number of distinct measurement time grids the session has seen."""
        return len(self._kernels)

    @property
    def num_workspaces(self) -> int:
        """Number of cached per-(times, sigma) workspaces."""
        return len(self._workspaces)

    def approx_bytes(self) -> int:
        """Approximate memory held by the session's per-grid artifacts.

        Counts the dominant dense arrays — kernel densities and forward
        design matrices — as a cheap size-accounting hook for pool eviction
        budgets; the per-lambda factorizations scale with the same arrays.
        Safe to call from a thread other than the one fitting: the dicts
        are snapshotted atomically (``list()`` under the GIL) before
        iterating, so a concurrent insert cannot break the sum.
        """
        kernels = list(self._kernels.values())
        forwards = list(self._forwards.values())
        total = sum(kernel.density.nbytes for kernel in kernels)
        total += sum(forward.design_matrix.nbytes for forward in forwards)
        return int(total)

    def stats(self) -> dict:
        """Usage counters of this session, for telemetry and pool budgets.

        Returns
        -------
        dict
            ``grids`` / ``workspaces`` sizes, ``workspace_hits`` /
            ``workspace_misses`` cache counters, ``kernel_builds``
            (on-demand Monte-Carlo builds paid) and ``approx_bytes`` (see
            :meth:`approx_bytes`).
        """
        return {
            "grids": self.num_grids,
            "workspaces": self.num_workspaces,
            "workspace_hits": self._workspace_hits,
            "workspace_misses": self._workspace_misses,
            "kernel_builds": self._kernel_builds,
            "approx_bytes": self.approx_bytes(),
        }

    # ------------------------------------------------------------------
    # Per-grid artifacts
    # ------------------------------------------------------------------

    @property
    def constraint_set(self) -> ConstraintSet:
        """Constraint rows shared by every grid of this session.

        The rows depend only on the basis and the cell-cycle parameters, so
        one assembly (itself running off the memoised
        :func:`~repro.core.constraints.assembly_context`) serves every
        measurement grid the session ever sees.
        """
        if self._constraint_set is None:
            self._constraint_set = build_constraint_set(
                self.constraints, self.basis, self.parameters
            )
        return self._constraint_set

    def register_kernel(self, kernel: VolumeKernel) -> VolumeKernel:
        """Adopt a pre-built kernel for its measurement grid.

        Service callers that already hold kernels for their experiment's
        grids register them up front so the session never pays a Monte-Carlo
        build; registered kernels take precedence over on-demand builds.
        """
        self._kernels[times_fingerprint(kernel.times)] = kernel
        return kernel

    def kernel_for(self, times: np.ndarray, rng: SeedLike = 0) -> VolumeKernel:
        """Kernel matching ``times``: cached, registered, or built on demand."""
        times = ensure_1d(times, "times")
        key = times_fingerprint(times)
        kernel = self._kernels.get(key)
        if kernel is None:
            explicit = self._explicit_kernel
            if explicit is not None:
                # A session around an explicit kernel serves only that grid
                # (plus any registered ones); tolerate float noise the way
                # ensure_kernel always has.
                if explicit.times.size == times.size and np.allclose(
                    explicit.times, times
                ):
                    kernel = explicit
                else:
                    raise ValueError(
                        "the provided kernel's measurement times do not match the data times"
                    )
            else:
                builder = self.deconvolver.kernel_builder
                if builder is None:
                    builder = KernelBuilder(self.parameters)
                kernel = builder.build(times, rng)
                self._kernel_builds += 1
            self._kernels[key] = kernel
        return kernel

    def workspace(
        self,
        times: np.ndarray,
        *,
        sigma: np.ndarray | float | None = None,
        rng: SeedLike = 0,
    ) -> FitWorkspace:
        """Cached per-grid workspace for repeated fits on ``(times, sigma)``."""
        times = ensure_1d(times, "times")
        times_key = times_fingerprint(times)
        key = (times_key, sigma_fingerprint(times, sigma))
        cached = self._workspaces.get(key)
        if cached is not None:
            self._workspace_hits += 1
        else:
            self._workspace_misses += 1
            kernel = self.kernel_for(times, rng)
            forward = self._forwards.get(times_key)
            if forward is None:
                forward = ForwardModel(kernel, self.basis)
                self._forwards[times_key] = forward
            cached = FitWorkspace(self, times, sigma, kernel, forward)
            self._workspaces[key] = cached
        return cached

    # ------------------------------------------------------------------
    # One-shot fits (delegated to the facade, which routes back through
    # this session's workspaces)
    # ------------------------------------------------------------------

    def fit(self, times: np.ndarray, measurements: np.ndarray, **options) -> "DeconvolutionResult":
        """One-shot fit through the session (see :meth:`Deconvolver.fit`)."""
        return self.deconvolver.fit(times, measurements, **options)

    def fit_many(
        self, times: np.ndarray, measurement_matrix: np.ndarray, **options
    ) -> list["DeconvolutionResult"]:
        """Batched multi-species fit (see :meth:`Deconvolver.fit_many`)."""
        return self.deconvolver.fit_many(times, measurement_matrix, **options)
