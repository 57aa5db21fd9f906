"""Physical constraints on the deconvolved expression profile.

The paper imposes three kinds of constraints on ``f_alpha`` (Secs. 2.3 and
3.2), all linear in the spline coefficients ``alpha``:

* **Positivity** — expression concentrations cannot be negative, enforced on a
  fine phase grid: ``f_alpha(phi_j) >= 0``.
* **RNA conservation across division** — the transcript concentration just
  before division must equal the volume-weighted combination of the daughter
  concentrations: ``f(1) = 0.4 f(0) + 0.6 E[f(phi_sst)]``, i.e.
  ``\\int w(phi) f(phi) dphi = 0`` with
  ``w(phi) = delta(1 - phi) - 0.4 delta(phi) - 0.6 p(phi)``.
* **Rate continuity across division** (the Sec. 3.2 update) — the rate of
  change of the transcript *number* must also be continuous:
  ``\\int w1(phi) f(phi) dphi = \\int w2(phi) f'(phi) dphi`` with
  ``w1 = beta0 delta(1-phi) - beta0 delta(phi) - beta(phi) p(phi)`` and
  ``w2 = 0.4 delta(phi) + 0.6 p(phi) - delta(1-phi)`` (eqs. 17-19).

Each constraint object converts itself into rows of a linear equality or
inequality system over ``alpha``; :class:`ConstraintSet` collects those rows
so the deconvolution problem can toggle constraints for ablation studies.

All constraints draw their evaluation tables from a shared
:class:`AssemblyContext`: the dense phase grid, Simpson weights, transition
density and the basis/derivative matrices are computed **once per assembly**
(instead of once per constraint) and memoised across assemblies of the same
``(basis, parameters)`` configuration, so re-assembling a problem for a new
experiment grid costs table lookups instead of quadrature.
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.backends import weighted_dot
from repro.cellcycle.parameters import CellCycleParameters
from repro.core.basis import SplineBasis, clear_penalty_cache
from repro.numerics.quadrature import simpson_weights
from repro.utils.gridding import phase_grid


@dataclass
class ConstraintSet:
    """Linear constraint rows over the spline coefficients.

    ``equality_matrix @ alpha = equality_vector`` and
    ``inequality_matrix @ alpha >= inequality_vector``.
    """

    equality_matrix: np.ndarray
    equality_vector: np.ndarray
    inequality_matrix: np.ndarray
    inequality_vector: np.ndarray
    names: list[str] = field(default_factory=list)

    @classmethod
    def empty(cls, num_coefficients: int) -> "ConstraintSet":
        """A constraint set with no rows."""
        return cls(
            equality_matrix=np.zeros((0, num_coefficients)),
            equality_vector=np.zeros(0),
            inequality_matrix=np.zeros((0, num_coefficients)),
            inequality_vector=np.zeros(0),
            names=[],
        )

    def add_equalities(self, rows: np.ndarray, rhs: np.ndarray, name: str) -> None:
        """Append equality rows."""
        self.equality_matrix = np.vstack([self.equality_matrix, np.atleast_2d(rows)])
        self.equality_vector = np.concatenate([self.equality_vector, np.atleast_1d(rhs)])
        self.names.append(name)

    def add_inequalities(self, rows: np.ndarray, rhs: np.ndarray, name: str) -> None:
        """Append inequality rows (``rows @ alpha >= rhs``)."""
        self.inequality_matrix = np.vstack([self.inequality_matrix, np.atleast_2d(rows)])
        self.inequality_vector = np.concatenate([self.inequality_vector, np.atleast_1d(rhs)])
        self.names.append(name)

    @property
    def has_equalities(self) -> bool:
        """Whether any equality rows are present."""
        return self.equality_matrix.shape[0] > 0

    @property
    def has_inequalities(self) -> bool:
        """Whether any inequality rows are present."""
        return self.inequality_matrix.shape[0] > 0

    def violations(self, coefficients: np.ndarray, tol: float = 1e-8) -> dict[str, float]:
        """Maximum equality residual and inequality violation of a solution."""
        eq_violation = 0.0
        if self.has_equalities:
            eq_violation = float(
                np.max(np.abs(self.equality_matrix @ coefficients - self.equality_vector))
            )
        ineq_violation = 0.0
        if self.has_inequalities:
            slack = self.inequality_matrix @ coefficients - self.inequality_vector
            ineq_violation = float(max(0.0, -np.min(slack, initial=0.0)))
        return {"equality": eq_violation, "inequality": ineq_violation, "tolerance": tol}


class AssemblyContext:
    """Shared evaluation tables for assembling one constraint stack.

    One context is built per ``(basis, parameters)`` pair and handed to every
    constraint, so the dense phase grid, Simpson weights, transition density
    and the basis/derivative matrices are evaluated once per assembly instead
    of once per constraint.  All tables are keyed by grid size and built
    lazily, so a context only ever holds what its constraints asked for.

    Contexts themselves are memoised at module level (see
    :func:`assembly_context`), which makes *re*-assembly of an
    already-seen configuration — a fresh problem on a new measurement grid of
    the same experiment — a set of dictionary hits.

    Parameters
    ----------
    basis:
        Spline basis whose rows the constraints are expressed over.
    parameters:
        Cell-cycle parameters supplying the transition density and ``beta``.
    """

    def __init__(self, basis: SplineBasis, parameters: CellCycleParameters) -> None:
        self.basis = basis
        self.parameters = parameters
        self._basis_values: dict[int, np.ndarray] = {}
        self._basis_derivatives: dict[int, np.ndarray] = {}
        self._quadratures: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._beta_tables: dict[int, tuple[np.ndarray, float]] = {}
        self._endpoint_values: tuple[np.ndarray, np.ndarray] | None = None
        self._endpoint_derivatives: tuple[np.ndarray, np.ndarray] | None = None

    def basis_values(self, grid_size: int) -> np.ndarray:
        """Basis matrix on ``phase_grid(grid_size)`` (cached per size)."""
        table = self._basis_values.get(grid_size)
        if table is None:
            table = self.basis.evaluate(phase_grid(grid_size))
            self._basis_values[grid_size] = table
        return table

    def basis_derivatives(self, grid_size: int) -> np.ndarray:
        """First-derivative basis matrix on ``phase_grid(grid_size)`` (cached)."""
        table = self._basis_derivatives.get(grid_size)
        if table is None:
            table = self.basis.evaluate_derivative(phase_grid(grid_size))
            self._basis_derivatives[grid_size] = table
        return table

    @property
    def endpoint_values(self) -> tuple[np.ndarray, np.ndarray]:
        """Basis rows at the cycle endpoints, ``(psi(0), psi(1))``."""
        if self._endpoint_values is None:
            rows = self.basis.evaluate(np.array([0.0, 1.0]))
            self._endpoint_values = (rows[0], rows[1])
        return self._endpoint_values

    @property
    def endpoint_derivatives(self) -> tuple[np.ndarray, np.ndarray]:
        """Derivative basis rows at the endpoints, ``(psi'(0), psi'(1))``."""
        if self._endpoint_derivatives is None:
            rows = self.basis.evaluate_derivative(np.array([0.0, 1.0]))
            self._endpoint_derivatives = (rows[0], rows[1])
        return self._endpoint_derivatives

    def density_quadrature(
        self, grid_size: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Dense grid, Simpson weights and normalised transition density.

        The truncated Gaussian is renormalised on ``[0, 1]`` so the constraint
        weights integrate the density to exactly one.
        """
        table = self._quadratures.get(grid_size)
        if table is None:
            grid = phase_grid(grid_size)
            weights = simpson_weights(grid)
            density = np.asarray(
                self.parameters.transition_phase_density(grid), dtype=float
            )
            density = density / float(weights @ density)
            table = (grid, weights, density)
            self._quadratures[grid_size] = table
        return table

    def beta_quadrature(self, grid_size: int) -> tuple[np.ndarray, float]:
        """Masked ``beta * p`` values and their integral ``beta0`` (cached).

        ``beta(phi) = 0.4 / (1 - phi)`` diverges at ``phi = 1``, where the
        transition density has long since vanished; the product is evaluated
        with the zero-density points and the endpoint masked so the
        divergence never enters the constraint row.
        """
        table = self._beta_tables.get(grid_size)
        if table is None:
            grid, weights, density = self.density_quadrature(grid_size)
            usable = (density > 0.0) & (grid < 1.0 - 1e-9)
            beta_density = np.zeros_like(density)
            beta_density[usable] = (
                np.asarray(self.parameters.beta(grid[usable]), dtype=float)
                * density[usable]
            )
            table = (beta_density, float(weights @ beta_density))
            self._beta_tables[grid_size] = table
        return table


# Memoised contexts keyed by basis/parameter fingerprints: assemblies of the
# same configuration — fresh problems across the grids of one experiment —
# share one context.  Smallish LRU so pathological sweeps cannot grow it
# without bound.
_CONTEXT_CACHE: OrderedDict[tuple, AssemblyContext] = OrderedDict()
_CONTEXT_CACHE_SIZE = 8


def assembly_context(
    basis: SplineBasis, parameters: CellCycleParameters
) -> AssemblyContext:
    """Shared (memoised) :class:`AssemblyContext` for a configuration.

    Keyed by the basis knot fingerprint and the parameter values (plus the
    concrete parameter type, so subclasses overriding the density or ``beta``
    never collide with the base class).  Unhashable parameter objects fall
    back to an uncached context.
    """
    try:
        key = (basis.fingerprint, type(parameters), parameters)
        context = _CONTEXT_CACHE.get(key)
    except TypeError:
        return AssemblyContext(basis, parameters)
    if context is None:
        context = AssemblyContext(basis, parameters)
        _CONTEXT_CACHE[key] = context
        while len(_CONTEXT_CACHE) > _CONTEXT_CACHE_SIZE:
            _CONTEXT_CACHE.popitem(last=False)
    else:
        _CONTEXT_CACHE.move_to_end(key)
    return context


def clear_assembly_caches() -> None:
    """Drop every module-level assembly memo (contexts and penalty matrices).

    Used by the benchmark's genuinely-cold assembly stage and by tests; the
    caches refill transparently on the next assembly.
    """
    _CONTEXT_CACHE.clear()
    clear_penalty_cache()


class Constraint(abc.ABC):
    """Interface of a linear constraint contributor."""

    name: str = "constraint"

    @abc.abstractmethod
    def apply(
        self,
        constraint_set: ConstraintSet,
        basis: SplineBasis,
        parameters: CellCycleParameters,
    ) -> None:
        """Append this constraint's rows to ``constraint_set``."""

    def apply_with_context(
        self, constraint_set: ConstraintSet, context: AssemblyContext
    ) -> None:
        """Append rows using a shared :class:`AssemblyContext`.

        The default delegates to :meth:`apply`, so third-party constraints
        written against the ``(basis, parameters)`` signature keep working;
        the built-in constraints override this with the table-sharing path.
        """
        self.apply(constraint_set, context.basis, context.parameters)


class PositivityConstraint(Constraint):
    """Non-negativity of the expression on a fine phase grid.

    Parameters
    ----------
    grid_size:
        Number of equally spaced phases at which ``f_alpha >= 0`` is enforced.
    """

    name = "positivity"

    def __init__(self, grid_size: int = 201) -> None:
        grid_size = int(grid_size)
        if grid_size < 2:
            raise ValueError("grid_size must be >= 2")
        self.grid_size = grid_size

    def apply(
        self,
        constraint_set: ConstraintSet,
        basis: SplineBasis,
        parameters: CellCycleParameters,
    ) -> None:
        """Append one ``f_alpha(phi_j) >= 0`` row per grid phase."""
        self.apply_with_context(constraint_set, assembly_context(basis, parameters))

    def apply_with_context(
        self, constraint_set: ConstraintSet, context: AssemblyContext
    ) -> None:
        """Append the positivity rows from the context's cached basis table."""
        rows = context.basis_values(self.grid_size)
        constraint_set.add_inequalities(rows, np.zeros(rows.shape[0]), self.name)


class RNAConservationConstraint(Constraint):
    """Conservation of transcript number across cell division.

    Enforces ``f(1) - 0.4 f(0) - 0.6 \\int p(phi) f(phi) dphi = 0``.
    """

    name = "rna_conservation"

    def __init__(self, quadrature_size: int = 2001) -> None:
        self.quadrature_size = int(quadrature_size)

    def apply(
        self,
        constraint_set: ConstraintSet,
        basis: SplineBasis,
        parameters: CellCycleParameters,
    ) -> None:
        """Append the conservation equality row (eq. 7) over the basis."""
        self.apply_with_context(constraint_set, assembly_context(basis, parameters))

    def apply_with_context(
        self, constraint_set: ConstraintSet, context: AssemblyContext
    ) -> None:
        """Append the conservation row from the context's cached tables."""
        parameters = context.parameters
        _, weights, density = context.density_quadrature(self.quadrature_size)
        basis_at_zero, basis_at_one = context.endpoint_values
        density_integral = weighted_dot(
            weights, density, context.basis_values(self.quadrature_size)
        )
        row = (
            basis_at_one
            - parameters.swarmer_volume_fraction * basis_at_zero
            - parameters.stalked_volume_fraction * density_integral
        )
        constraint_set.add_equalities(row, np.zeros(1), self.name)


class RateContinuityConstraint(Constraint):
    """Continuity of the transcript-generation rate across division (Sec. 3.2).

    Enforces eq. 17: ``\\int w1(phi) f(phi) dphi = \\int w2(phi) f'(phi) dphi``
    with the delta-function parts evaluated directly through the basis.
    """

    name = "rate_continuity"

    def __init__(self, quadrature_size: int = 2001) -> None:
        self.quadrature_size = int(quadrature_size)

    def apply(
        self,
        constraint_set: ConstraintSet,
        basis: SplineBasis,
        parameters: CellCycleParameters,
    ) -> None:
        """Append the rate-continuity equality row (eq. 17) over the basis."""
        self.apply_with_context(constraint_set, assembly_context(basis, parameters))

    def apply_with_context(
        self, constraint_set: ConstraintSet, context: AssemblyContext
    ) -> None:
        """Append the rate-continuity row from the context's cached tables."""
        parameters = context.parameters
        _, weights, density = context.density_quadrature(self.quadrature_size)
        # The divergence of beta at phi = 1 is handled once, inside the
        # context's masked beta table (see AssemblyContext.beta_quadrature).
        beta_density, beta0 = context.beta_quadrature(self.quadrature_size)

        basis_at_zero, basis_at_one = context.endpoint_values
        deriv_at_zero, deriv_at_one = context.endpoint_derivatives
        basis_on_grid = context.basis_values(self.quadrature_size)
        deriv_on_grid = context.basis_derivatives(self.quadrature_size)

        # Left-hand side of eq. 17: integral of w1 against f.
        lhs = (
            beta0 * basis_at_one
            - beta0 * basis_at_zero
            - weighted_dot(weights, beta_density, basis_on_grid)
        )
        # Right-hand side of eq. 17: integral of w2 against f'.
        rhs = (
            parameters.swarmer_volume_fraction * deriv_at_zero
            + parameters.stalked_volume_fraction
            * weighted_dot(weights, density, deriv_on_grid)
            - deriv_at_one
        )
        row = lhs - rhs
        constraint_set.add_equalities(row, np.zeros(1), self.name)


def default_constraints(
    *,
    positivity: bool = True,
    rna_conservation: bool = True,
    rate_continuity: bool = True,
    positivity_grid: int = 201,
) -> list[Constraint]:
    """The paper's default constraint stack, with per-constraint toggles."""
    constraints: list[Constraint] = []
    if positivity:
        constraints.append(PositivityConstraint(grid_size=positivity_grid))
    if rna_conservation:
        constraints.append(RNAConservationConstraint())
    if rate_continuity:
        constraints.append(RateContinuityConstraint())
    return constraints


def build_constraint_set(
    constraints: list[Constraint],
    basis: SplineBasis,
    parameters: CellCycleParameters,
    *,
    context: AssemblyContext | None = None,
) -> ConstraintSet:
    """Assemble the linear rows of all given constraints.

    All constraints share one :class:`AssemblyContext` (the memoised
    module-level context by default), so the dense quadrature tables and
    basis evaluations are computed at most once per configuration.
    """
    if context is None:
        context = assembly_context(basis, parameters)
    constraint_set = ConstraintSet.empty(basis.num_basis)
    for constraint in constraints:
        constraint.apply_with_context(constraint_set, context)
    return constraint_set
