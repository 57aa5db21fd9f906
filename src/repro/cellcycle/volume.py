"""Cell-volume models ``v_k(phi)``.

Three models are provided:

* :class:`LinearVolumeModel` — a single straight line from ``0.4 V0`` at
  ``phi = 0`` to ``V0`` at ``phi = 1`` (the "purely linear" 2009 baseline that
  ignores the 40/60 split at the transition phase).
* :class:`PiecewiseLinearVolumeModel` — linear on ``[0, phi_sst]`` and
  ``[phi_sst, 1]`` hitting ``0.4 V0``, ``0.6 V0`` and ``V0`` (volume
  partition respected but with a kink at the transition).
* :class:`SmoothVolumeModel` — the paper's updated piecewise-polynomial model
  (eq. 11) which additionally matches the volume growth *rate* across
  division, ``v'(0) = v'(phi_sst) = v'(1)``.

All models are normalised so that ``v(1) = V0`` (the pre-division volume).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.backends import smooth_volume_into
from repro.utils.validation import check_positive


class VolumeModel(abc.ABC):
    """Interface of a single-cell volume model.

    Parameters
    ----------
    v0:
        Pre-division cell volume ``V0 = v(1)`` (arbitrary units).
    """

    name: str = "volume"

    def __init__(self, v0: float = 1.0) -> None:
        self.v0 = check_positive(v0, "v0")

    @abc.abstractmethod
    def _relative_volume(self, phi: np.ndarray, phi_sst: np.ndarray) -> np.ndarray:
        """Volume divided by ``V0`` for arrays of equal shape."""

    @abc.abstractmethod
    def _relative_derivative(self, phi: np.ndarray, phi_sst: np.ndarray) -> np.ndarray:
        """d(v/V0)/dphi for arrays of equal shape."""

    def volume(self, phi: np.ndarray | float, phi_sst: np.ndarray | float) -> np.ndarray | float:
        """Cell volume at phase ``phi`` for a cell with transition phase ``phi_sst``."""
        phi_arr, sst_arr, scalar = _broadcast(phi, phi_sst)
        result = self.v0 * self._relative_volume(phi_arr, sst_arr)
        return float(result[()]) if scalar else result

    def derivative(self, phi: np.ndarray | float, phi_sst: np.ndarray | float) -> np.ndarray | float:
        """Volume growth rate ``dv/dphi`` at phase ``phi``."""
        phi_arr, sst_arr, scalar = _broadcast(phi, phi_sst)
        result = self.v0 * self._relative_derivative(phi_arr, sst_arr)
        return float(result[()]) if scalar else result

    def volume_for_cells(
        self,
        phi: np.ndarray,
        transition_phases: np.ndarray,
        cell_indices: np.ndarray,
    ) -> np.ndarray:
        """Volumes for (phase, cell) pairs sharing per-cell transition phases.

        ``phi[j]`` is the phase of cell ``cell_indices[j]`` whose transition
        phase is ``transition_phases[cell_indices[j]]``.  Subclasses may
        exploit the per-cell structure (e.g. computing phase-independent
        coefficients once per cell); results are identical to
        ``volume(phi, transition_phases[cell_indices])``.
        """
        return self.volume(phi, np.asarray(transition_phases, dtype=float)[cell_indices])

    def volume_for_cells_into(
        self,
        phi: np.ndarray,
        transition_phases: np.ndarray,
        cell_indices: np.ndarray,
        out: np.ndarray,
    ) -> np.ndarray:
        """Pair volumes written into a caller-provided buffer.

        Same contract as :meth:`volume_for_cells` with the result stored in
        ``out`` (shape of ``phi``) and returned.  The fused kernel build
        evaluates volumes directly into the buffer that becomes the binned
        accumulation weights, so subclasses can override this to skip every
        intermediate array; the base implementation simply copies.
        """
        out[...] = self.volume_for_cells(phi, transition_phases, cell_indices)
        return out

    def swarmer_birth_volume(self) -> float:
        """Volume of a newborn swarmer daughter (``v(0)``)."""
        return 0.4 * self.v0

    def stalked_birth_volume(self, phi_sst: float) -> float:
        """Volume of a newborn stalked daughter (``v(phi_sst)``)."""
        return float(self.volume(phi_sst, phi_sst))


def _broadcast(phi, phi_sst) -> tuple[np.ndarray, np.ndarray, bool]:
    """Broadcast phase and transition-phase inputs and validate their ranges."""
    phi_arr = np.asarray(phi, dtype=float)
    sst_arr = np.asarray(phi_sst, dtype=float)
    scalar = phi_arr.ndim == 0 and sst_arr.ndim == 0
    phi_arr, sst_arr = np.broadcast_arrays(phi_arr, sst_arr)
    phi_arr = np.asarray(phi_arr, dtype=float)
    sst_arr = np.asarray(sst_arr, dtype=float)
    if np.any(phi_arr < -1e-9) or np.any(phi_arr > 1.0 + 1e-9):
        raise ValueError("phase values must lie in [0, 1]")
    if np.any(sst_arr <= 0.0) or np.any(sst_arr >= 1.0):
        raise ValueError("transition phases must lie strictly inside (0, 1)")
    return np.clip(phi_arr, 0.0, 1.0), sst_arr, scalar


class LinearVolumeModel(VolumeModel):
    """Single straight line from ``0.4 V0`` at ``phi = 0`` to ``V0`` at ``phi = 1``."""

    name = "linear"

    def _relative_volume(self, phi: np.ndarray, phi_sst: np.ndarray) -> np.ndarray:
        return 0.4 + 0.6 * phi

    def _relative_derivative(self, phi: np.ndarray, phi_sst: np.ndarray) -> np.ndarray:
        return np.full_like(phi, 0.6)


class PiecewiseLinearVolumeModel(VolumeModel):
    """Two linear pieces hitting ``0.4 V0``, ``0.6 V0`` and ``V0``.

    Respects the 40/60 volume partition at the transition phase but has a
    discontinuous growth rate there (the constraint relaxed by the smooth
    model of eq. 11).
    """

    name = "piecewise_linear"

    def _relative_volume(self, phi: np.ndarray, phi_sst: np.ndarray) -> np.ndarray:
        early = 0.4 + 0.2 * phi / phi_sst
        late = 0.6 + 0.4 * (phi - phi_sst) / (1.0 - phi_sst)
        return np.where(phi < phi_sst, early, late)

    def _relative_derivative(self, phi: np.ndarray, phi_sst: np.ndarray) -> np.ndarray:
        early = 0.2 / phi_sst
        late = 0.4 / (1.0 - phi_sst)
        return np.where(phi < phi_sst, early, late)


class SmoothVolumeModel(VolumeModel):
    """Smooth piecewise-polynomial volume model of eq. 11 in the paper.

    The cubic piece on ``[0, phi_sst)`` and the linear piece on
    ``[phi_sst, 1]`` satisfy

    * ``v(0) = 0.4 V0``, ``v(phi_sst) = 0.6 V0``, ``v(1) = V0`` (the measured
      40/60 volume partition), and
    * ``v'(0) = v'(phi_sst) = v'(1) = 0.4 V0 / (1 - phi_sst)`` (continuity of
      the growth rate across division).
    """

    name = "smooth"

    def __init__(self, v0: float = 1.0) -> None:
        super().__init__(v0)
        # One-slot memo of the per-cell polynomial coefficients (kernel
        # builds call volume_for_cells once per measurement batch with the
        # same transition-phase array).  Keyed by the array *contents* so an
        # in-place edit of the caller's array can never serve stale
        # coefficients; the byte compare is microseconds against the
        # coefficient arithmetic it skips.
        self._coefficient_key: bytes | None = None
        self._coefficient_value: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None

    @staticmethod
    def polynomial_coefficients(
        phi_sst: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Piecewise-polynomial coefficients of eq. 11 for transition phases.

        Returns ``(late_base, linear, quad, cubic)`` such that the relative
        volume is ``0.4 + linear phi + quad phi^2 + cubic phi^3`` before the
        transition and ``late_base + linear phi`` after it.
        """
        s = np.asarray(phi_sst, dtype=float)
        linear = 0.4 / (1.0 - s)
        quad = (0.6 - 1.8 * s) / ((1.0 - s) * s**2)
        cubic = (1.2 * s - 0.4) / ((1.0 - s) * s**3)
        late_base = 1.0 - linear
        return late_base, linear, quad, cubic

    def _cached_coefficients(
        self, transition_phases: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-cell coefficients, recomputed only when the values change."""
        key = np.ascontiguousarray(transition_phases).tobytes()
        if key == self._coefficient_key:
            return self._coefficient_value
        value = self.polynomial_coefficients(transition_phases)
        self._coefficient_key = key
        self._coefficient_value = value
        return value

    def _relative_volume(self, phi: np.ndarray, phi_sst: np.ndarray) -> np.ndarray:
        late_base, linear, quad, cubic = self.polynomial_coefficients(phi_sst)
        early = 0.4 + linear * phi + quad * phi**2 + cubic * phi**3
        late = late_base + linear * phi
        return np.where(phi < phi_sst, early, late)

    def _relative_derivative(self, phi: np.ndarray, phi_sst: np.ndarray) -> np.ndarray:
        _, linear, quad, cubic = self.polynomial_coefficients(phi_sst)
        early = linear + 2.0 * quad * phi + 3.0 * cubic * phi**2
        late = np.broadcast_to(linear, phi.shape)
        return np.where(phi < phi_sst, early, late)

    def volume_for_cells(
        self,
        phi: np.ndarray,
        transition_phases: np.ndarray,
        cell_indices: np.ndarray,
    ) -> np.ndarray:
        """Batched pair evaluation: one Horner pass over gathered coefficients.

        The phase-independent polynomial coefficients are computed once per
        cell (and memoised per transition-phase array, so repeated kernel
        builds over one population history skip even that), then gathered per
        (time, cell) pair and evaluated in a single fused Horner pass.
        Matches the generic ``volume`` path to machine precision (the Horner
        regrouping permutes float rounding at the last ulp).
        """
        phi = np.asarray(phi, dtype=float)
        return self.volume_for_cells_into(
            phi, transition_phases, cell_indices, np.empty(phi.shape)
        )

    def volume_for_cells_into(
        self,
        phi: np.ndarray,
        transition_phases: np.ndarray,
        cell_indices: np.ndarray,
        out: np.ndarray,
    ) -> np.ndarray:
        """Fused Horner evaluation straight into a caller-provided buffer.

        The piecewise polynomial is accumulated in place in ``out`` by
        :func:`repro.backends.smooth_volume_into`: it Horner-evaluates the
        piece covering the **majority** of the pairs over the whole buffer
        and scatters only the minority piece through its boolean mask — no
        full second-piece array, no ``where`` allocation.  This is the path
        the fused kernel build uses: ``out`` is the weight buffer of the
        binned accumulation, so volume evaluation flows directly into the
        histogram pass.
        """
        phi = np.asarray(phi, dtype=float)
        s = np.asarray(transition_phases, dtype=float)
        cell_indices = np.asarray(cell_indices)
        if np.any(phi < -1e-9) or np.any(phi > 1.0 + 1e-9):
            raise ValueError("phase values must lie in [0, 1]")
        if np.any(s <= 0.0) or np.any(s >= 1.0):
            raise ValueError("transition phases must lie strictly inside (0, 1)")
        phi = np.clip(phi, 0.0, 1.0)
        late_base, linear, quad, cubic = self._cached_coefficients(s)
        return smooth_volume_into(
            phi, s, cell_indices, late_base, linear, quad, cubic, self.v0, out
        )


_VOLUME_MODELS = {
    LinearVolumeModel.name: LinearVolumeModel,
    PiecewiseLinearVolumeModel.name: PiecewiseLinearVolumeModel,
    SmoothVolumeModel.name: SmoothVolumeModel,
}


def make_volume_model(name: str, v0: float = 1.0) -> VolumeModel:
    """Construct a volume model by name (``linear``, ``piecewise_linear``, ``smooth``)."""
    try:
        cls = _VOLUME_MODELS[name]
    except KeyError:
        raise ValueError(
            f"unknown volume model {name!r}; available: {sorted(_VOLUME_MODELS)}"
        ) from None
    return cls(v0=v0)
