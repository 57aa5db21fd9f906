"""Global configuration defaults for the reproduction package.

The defaults collected here are the ones the paper states explicitly (mean
swarmer-to-stalked transition phase, mean cycle time, volume partition) plus
numerical defaults (grid sizes, Monte-Carlo population sizes) that control the
accuracy/runtime trade-off of the simulation-based kernel.  Everything is a
plain value so callers can override any of them per experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Mean swarmer-to-stalked (SW->ST) transition phase (updated value, Sec. 2.1).
DEFAULT_MU_SST: float = 0.15

#: Coefficient of variation of the SW->ST transition phase (Sec. 2.1).
DEFAULT_CV_SST: float = 0.13

#: Mean Caulobacter cell-cycle time in minutes (Sec. 4.1).
DEFAULT_MEAN_CYCLE_TIME: float = 150.0

#: Coefficient of variation of the cell-cycle time (configurable; the paper's
#: companion work uses a distribution around the 150-minute mean).
DEFAULT_CV_CYCLE_TIME: float = 0.10

#: Volume fraction inherited by the swarmer daughter at division (Sec. 3.1).
SWARMER_VOLUME_FRACTION: float = 0.4

#: Volume fraction inherited by the stalked daughter at division (Sec. 3.1).
STALKED_VOLUME_FRACTION: float = 0.6

#: Default number of phase bins used when estimating Q(phi, t).
DEFAULT_PHASE_BINS: int = 100

#: Default number of cells simulated when estimating Q(phi, t).
DEFAULT_POPULATION_SIZE: int = 20_000

#: Default number of spline basis functions for f(phi).
DEFAULT_NUM_BASIS: int = 12

#: Default number of points of the fine phase grid used for positivity
#: constraints and profile evaluation.
DEFAULT_FINE_GRID: int = 201

#: Worker cap for thread pools (the service scheduler's batch workers).
DEFAULT_THREAD_POOL_CAP: int = 4

#: Default bind host of the network front end (``repro serve``); loopback by
#: default — expose the service deliberately, not by accident.
DEFAULT_NET_HOST: str = "127.0.0.1"

#: Default TCP port of the network front end (0 = ephemeral, for tests).
DEFAULT_NET_PORT: int = 8732

#: Seconds the HTTP edge waits on scheduler intake backpressure before
#: answering 429 (intake_overflow).
DEFAULT_SUBMIT_TIMEOUT_S: float = 30.0

#: Largest HTTP request body the network edge accepts.
DEFAULT_MAX_MESSAGE_BYTES: int = 16 * 1024 * 1024


def default_pool_size(num_tasks: int | None) -> int:
    """Shared worker-pool sizing rule used by every pooled execution path.

    Parameters
    ----------
    num_tasks:
        Number of independent tasks the pool will run, or ``None`` when the
        task count is unbounded/unknown (a long-lived service): the pool then
        gets the full :data:`DEFAULT_THREAD_POOL_CAP`.

    Returns
    -------
    int
        ``min(cap, max(1, num_tasks))`` — at least one worker, never more
        than the cap.
    """
    if num_tasks is None:
        return DEFAULT_THREAD_POOL_CAP
    return min(DEFAULT_THREAD_POOL_CAP, max(1, int(num_tasks)))


@dataclass(frozen=True)
class NumericalDefaults:
    """Bundle of numerical defaults used across the package.

    Attributes
    ----------
    phase_bins:
        Number of bins of the phase axis for kernel estimation.
    population_size:
        Number of simulated cells for Monte-Carlo kernel estimation.
    num_basis:
        Number of natural-cubic-spline basis functions for ``f(phi)``.
    fine_grid:
        Number of points of the fine phase grid for constraint evaluation.
    """

    phase_bins: int = DEFAULT_PHASE_BINS
    population_size: int = DEFAULT_POPULATION_SIZE
    num_basis: int = DEFAULT_NUM_BASIS
    fine_grid: int = DEFAULT_FINE_GRID


#: Shared immutable instance of the numerical defaults.
NUMERICAL_DEFAULTS = NumericalDefaults()
