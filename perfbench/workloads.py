"""The benchmark's named workloads and the fixed service stack they share.

Every workload is a closed loop of 320-request *passes*.  Pass ``k`` of a
run with seed ``s`` is ``build_workload(kernels, WorkloadSpec(**fields))``
with ``fields = workload.spec_fields(s, k)``, so its content is a pure
function of the seed and each pass is fresh: the result cache only ever
sees repeats inside one pass.  Pass 0 is the warm pass of set-up; timed
passes count up from 1; the traced run's layer probes use passes from
:data:`PROBE_OFFSET` on.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from repro.service import WorkloadSpec

#: Requests per pass (the ROADMAP's seeded service workload).
PASS_SIZE = 320
#: Load threads and connections, sized for a 2-core host.
LOAD_THREADS = 2
#: Monte-Carlo cells and phase bins per population kernel.
NUM_CELLS = 6000
PHASE_BINS = 60
#: Number of distinct measurement grids in the mix.
NUM_GRIDS = 4
#: Spline basis size of every served deconvolver.
NUM_BASIS = 12
#: First pass index used by the traced run's layer probes.
PROBE_OFFSET = 500_000


def grid_schedules() -> list[np.ndarray]:
    """The measurement grids ``linspace(0, 150 - 5i, max(8, 16 - i))``."""
    return [
        np.linspace(0.0, 150.0 - 5.0 * index, max(8, 16 - index))
        for index in range(NUM_GRIDS)
    ]


@dataclass(frozen=True)
class Workload:
    """One named traffic mix.

    ``transport`` is ``"bulk"`` (one producer thread feeding whole passes to
    ``submit_many``) or ``"http"`` (:data:`LOAD_THREADS` keep-alive
    connections each posting one request at a time).  ``heavy`` and
    ``light`` name the layers the mix loads most and least.
    """

    name: str
    transport: str
    repeat_ratio: float
    selection_fraction: float
    why: str
    heavy: tuple[str, ...]
    light: tuple[str, ...]
    species_variety: int = WorkloadSpec.species_variety

    def spec_fields(self, seed: int, index: int) -> dict:
        """Keyword arguments of the ``WorkloadSpec`` of pass ``index``."""
        return {
            "num_requests": PASS_SIZE,
            "repeat_ratio": self.repeat_ratio,
            "selection_fraction": self.selection_fraction,
            "species_variety": self.species_variety,
            "seed": pass_seed(seed, index),
        }

    def describe(self, seed: int) -> dict:
        """Plain-dict record of this workload for the run context."""
        return {
            **asdict(self),
            "seed_argument": seed,
            "pass_spec": {**self.spec_fields(seed, 0), "seed": f"{seed} * 1000000 + pass index"},
        }


def pass_seed(seed: int, index: int) -> int:
    """Workload generator seed of pass ``index`` in a run seeded ``seed``."""
    return int(seed) * 1_000_000 + int(index)


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="bulk_mixed",
            transport="bulk",
            repeat_ratio=0.3,
            selection_fraction=0.05,
            why=(
                "fixed-lambda passes with 30% exact repeats via submit_many: coalescing, "
                "cache and dedup, fingerprinting and stacked solves carry the load"
            ),
            heavy=("service.submit_many", "service.cache", "core.fit_many fixed-lambda"),
            light=("service.net", "lambda selection", "batching window"),
        ),
        Workload(
            name="select_fresh",
            transport="bulk",
            repeat_ratio=0.0,
            selection_fraction=0.5,
            why=(
                "50% GCV lambda selection and no repeats: numerics dominate and the cache "
                "only writes, so cache or dedup changes must not move it"
            ),
            heavy=("core lambda selection", "core.fit_many"),
            light=("service.cache hits", "service.net"),
            # With the generator's 6 profiles per pass, a selection-heavy pass
            # costs 14-73 ms (10th-90th percentile) depending on which 6 it
            # draws; one profile pool per request narrows that to 47-84 ms.
            species_variety=PASS_SIZE,
        ),
        Workload(
            name="http_mixed",
            transport="http",
            repeat_ratio=0.3,
            selection_fraction=0.05,
            why=(
                "bulk_mixed's mix over HTTP from 2 closed-loop keep-alive clients: the "
                "wire, the asyncio edge and the batching window sit on every request"
            ),
            heavy=("service.net", "batching window", "scheduler.submit"),
            light=("stacked solves", "service.submit_many"),
        ),
    )
}
