"""Deterministic, seeded workload generation and chaos scenarios.

Benchmarks and the ``repro serve-bench`` CLI need realistic service traffic:
a mix of measurement grids, synthetic "genes", noise levels, smoothing
settings and *exact repeats* (retried or re-displayed requests that a
content-addressed cache should answer).  :func:`build_workload` produces
such a request list deterministically from a seed, so throughput numbers
are reproducible run to run and every response can be verified bit-for-bit
against the one-at-a-time reference that :func:`serial_reference` computes
with plain :meth:`~repro.core.deconvolver.Deconvolver.fit` calls.

On top of the base generator, :data:`SCENARIOS` defines the chaos scenario
suite the robustness layer is tested under: each :class:`Scenario` reshapes
a built workload (:func:`apply_scenario` — priorities, deadlines, hot-key
shard skew, heavy-tailed request sizes, cache-hostile repeat suppression),
optionally paces its arrival times (:func:`arrival_offsets` — bursty
Poisson-sized waves), names the :class:`~repro.service.faults.FaultSpec` to
arm under ``--faults``, and carries the :class:`SLOTarget` its telemetry
snapshot is judged against (:func:`evaluate_slo`).  Scenario stamping draws
from its own seeded stream, so the *base* workload stays byte-identical to
the plain generator run to run — the bit-exactness reference never moves.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.data.synthetic import single_pulse_profile
from repro.service.faults import FaultSpec
from repro.service.scheduler import DEFAULT_CONFIG_KEY, FitRequest

__all__ = [
    "SCENARIOS",
    "SLOTarget",
    "Scenario",
    "WorkloadSpec",
    "apply_scenario",
    "arrival_offsets",
    "build_workload",
    "evaluate_slo",
    "max_coefficient_gap",
    "serial_reference",
    "warm_serial_reference",
]

#: Lambda candidate grid stamped on heavy-tail selection requests: wide and
#: dense enough that one heavy request costs tens of solve passes.
HEAVY_LAMBDA_GRID = np.logspace(-6.0, 1.0, 48)


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of a generated service workload.

    Attributes
    ----------
    num_requests:
        Total number of requests generated.
    repeat_ratio:
        Probability that a request is a bit-exact repeat of an earlier one
        (fresh array copies, so only content addressing can recognise it).
    selection_fraction:
        Fraction of fresh requests that ask for automatic lambda selection
        (``lam=None``) instead of a fixed smoothing parameter.
    noise_levels:
        Measurement noise scales mixed uniformly across fresh requests.
    lambdas:
        Fixed smoothing parameters mixed across non-selection requests.
    species_variety:
        Number of distinct synthetic truth profiles ("genes") in the mix.
    seed:
        Seed of the generator; the workload is a pure function of the spec
        and the kernel list.
    """

    num_requests: int = 64
    repeat_ratio: float = 0.25
    selection_fraction: float = 0.2
    noise_levels: tuple = (0.005, 0.02)
    lambdas: tuple = (1e-3, 1e-2)
    species_variety: int = 6
    seed: int = 0


def build_workload(
    kernels: Sequence,
    spec: WorkloadSpec = WorkloadSpec(),
    *,
    config: Hashable = DEFAULT_CONFIG_KEY,
) -> list[FitRequest]:
    """Generate the seeded request mix for ``kernels``.

    Parameters
    ----------
    kernels:
        Pre-built :class:`~repro.cellcycle.kernel.VolumeKernel` objects, one
        per measurement grid in the mix; requests cycle over them randomly.
    spec:
        Workload shape (see :class:`WorkloadSpec`).
    config:
        Pool shard key stamped on every request.

    Returns
    -------
    list[FitRequest]
        ``spec.num_requests`` requests; repeats carry fresh array copies so
        only a content-addressed cache can recognise them.
    """
    if not kernels:
        raise ValueError("at least one kernel is required")
    rng = np.random.default_rng(spec.seed)
    profiles = [
        single_pulse_profile(
            center=0.15 + 0.7 * rng.random(),
            width=0.10 + 0.08 * rng.random(),
            amplitude=1.0 + rng.random(),
            baseline=0.2,
        )
        for _ in range(max(1, spec.species_variety))
    ]
    requests: list[FitRequest] = []
    fresh: list[FitRequest] = []
    for _ in range(spec.num_requests):
        if fresh and rng.random() < spec.repeat_ratio:
            base = fresh[int(rng.integers(len(fresh)))]
            requests.append(
                FitRequest(
                    times=base.times.copy(),
                    measurements=base.measurements.copy(),
                    sigma=base.sigma,
                    lam=base.lam,
                    lambda_method=base.lambda_method,
                    lambda_grid=base.lambda_grid,
                    rng=base.rng,
                    config=base.config,
                )
            )
            continue
        kernel = kernels[int(rng.integers(len(kernels)))]
        profile = profiles[int(rng.integers(len(profiles)))]
        noise = float(spec.noise_levels[int(rng.integers(len(spec.noise_levels)))])
        clean = kernel.apply_function(profile)
        values = clean + noise * rng.normal(size=clean.size)
        lam = None
        if rng.random() >= spec.selection_fraction:
            lam = float(spec.lambdas[int(rng.integers(len(spec.lambdas)))])
        request = FitRequest(
            times=np.asarray(kernel.times, dtype=float).copy(),
            measurements=values,
            lam=lam,
            config=config,
        )
        fresh.append(request)
        requests.append(request)
    return requests


def serial_reference(
    deconvolvers, requests: Sequence[FitRequest]
) -> list:
    """One-request-at-a-time reference: plain ``fit`` calls, no service layer.

    Parameters
    ----------
    deconvolvers:
        Either one :class:`~repro.core.deconvolver.Deconvolver` (serving
        every request) or a mapping from request ``config`` keys to
        deconvolvers.
    requests:
        The workload, fitted in order.

    Returns
    -------
    list[DeconvolutionResult]
        One result per request — the ground truth the scheduler's responses
        are verified against (bit-identical to 1e-10).
    """
    if isinstance(deconvolvers, Mapping):
        resolve = deconvolvers.__getitem__
    else:
        resolve = lambda _key: deconvolvers  # noqa: E731 - tiny adapter
    return [
        resolve(request.config).fit(
            request.times,
            request.measurements,
            sigma=request.sigma,
            lam=request.lam,
            lambda_method=request.lambda_method,
            lambda_grid=request.lambda_grid,
            rng=request.rng,
        )
        for request in requests
    ]


def warm_serial_reference(deconvolvers, requests: Sequence[FitRequest]) -> list:
    """Warm the one-at-a-time path with one representative per batch bucket.

    Benchmarks warm the serial reference before timing it so the measured
    pass pays no cold per-grid assembly the scheduler pass was spared
    either; one request per :meth:`FitRequest.batch_key` covers every grid,
    sigma variant and selection setting in the workload.  Returns the
    warm-up results (usually discarded).
    """
    representatives: dict = {}
    for request in requests:
        representatives.setdefault(request.batch_key(), request)
    return serial_reference(deconvolvers, list(representatives.values()))


def max_coefficient_gap(results, references) -> float:
    """Largest absolute coefficient difference across two result lists."""
    return max(
        float(np.max(np.abs(result.coefficients - reference.coefficients)))
        for result, reference in zip(results, references)
    )


# ----------------------------------------------------------------------
# Chaos scenarios
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SLOTarget:
    """Pass/fail thresholds a scenario's telemetry snapshot is judged against.

    Attributes
    ----------
    p95_latency_ms:
        Ceiling on the p95 submit-to-result latency of completed requests.
    max_shed_rate:
        Ceiling on ``shed / requests`` (admission-control rejections).
    max_deadline_miss_rate:
        Ceiling on ``deadline_missed / requests`` (queued work dropped
        stale).
    max_error_rate:
        Ceiling on ``errors / requests`` — real failures after retries and
        the degraded path have done their work (sheds and deadline misses
        are counted separately; they are the SLO machinery *working*).
    """

    p95_latency_ms: float = 1000.0
    max_shed_rate: float = 0.0
    max_deadline_miss_rate: float = 0.0
    max_error_rate: float = 0.0


@dataclass(frozen=True)
class Scenario:
    """One chaos scenario: a traffic shape plus its fault plan and SLO.

    Attributes
    ----------
    name, description:
        Identity and the one-line summary printed by ``repro serve-bench``.
    deadline_ms, deadline_fraction:
        Stamp ``deadline_ms`` on this fraction of requests (SLO traffic).
    priority_levels:
        Priorities drawn uniformly per request (single level = no reordering).
    heavy_fraction:
        Fraction of distinct request *contents* converted to automatic
        lambda selection over :data:`HEAVY_LAMBDA_GRID` — the heavy tail of
        the size distribution (one such request costs tens of solves).
    num_configs, hot_fraction:
        Shard the traffic over ``num_configs`` pool keys, routing
        ``hot_fraction`` of contents to the hot shard (``shard-0``) and the
        rest uniformly over the others — hot-key skew.
    repeat_ratio:
        Override of :attr:`WorkloadSpec.repeat_ratio` (``0.0`` makes the
        stream cache-hostile); ``None`` keeps the caller's ratio.
    burst_size, burst_pause_ms:
        Arrival pacing for :func:`arrival_offsets`: Poisson-sized waves of
        about ``burst_size`` back-to-back requests separated by
        ``burst_pause_ms`` quiet gaps.  ``burst_size=0`` submits everything
        at once (uniform open-loop load).
    client_window:
        Closed-loop client window: with a positive value the driver keeps at
        most this many submitted-but-unconsumed responses outstanding,
        waiting on the oldest before submitting more — a *slow consumer*.
        Small windows starve the runners of coalescing opportunities and
        keep response payloads parked until the client drains, exercising
        the backpressure path end to end.  ``0`` (default) is a fully open loop.
    faults:
        The :class:`~repro.service.faults.FaultSpec` armed when the caller
        asks for fault injection (all-zero spec = nothing to arm).
    slo:
        The :class:`SLOTarget` this scenario is judged against.
    """

    name: str
    description: str
    deadline_ms: float | None = None
    deadline_fraction: float = 0.0
    priority_levels: tuple = (0,)
    heavy_fraction: float = 0.0
    num_configs: int = 1
    hot_fraction: float = 0.0
    repeat_ratio: float | None = None
    burst_size: int = 0
    burst_pause_ms: float = 0.0
    client_window: int = 0
    faults: FaultSpec = field(default_factory=FaultSpec)
    slo: SLOTarget = field(default_factory=SLOTarget)


#: The chaos scenario suite ``repro serve-bench --scenario`` runs.  Latency
#: and rate ceilings are deliberately loose — they gate regressions in the
#: SLO machinery itself, not machine speed.
SCENARIOS: dict[str, Scenario] = {
    "steady": Scenario(
        name="steady",
        description="uniform open-loop arrivals, no deadlines — the happy-path baseline",
        faults=FaultSpec(solver_error_rate=0.08, slow_solve_rate=0.10),
        slo=SLOTarget(p95_latency_ms=2000.0, max_error_rate=0.02),
    ),
    "bursty": Scenario(
        name="bursty",
        description="Poisson-sized request waves with quiet gaps; everything carries a deadline",
        deadline_ms=500.0,
        deadline_fraction=1.0,
        priority_levels=(0, 1),
        burst_size=16,
        burst_pause_ms=20.0,
        faults=FaultSpec(solver_error_rate=0.08, slow_solve_rate=0.15, slow_solve_ms=4.0),
        slo=SLOTarget(
            p95_latency_ms=1000.0,
            max_shed_rate=0.5,
            max_deadline_miss_rate=0.25,
            max_error_rate=0.02,
        ),
    ),
    "heavy_tail": Scenario(
        name="heavy_tail",
        description="a slice of requests become wide lambda-selection sweeps (heavy-tailed sizes)",
        deadline_ms=2000.0,
        deadline_fraction=0.5,
        priority_levels=(0, 1, 2),
        heavy_fraction=0.2,
        faults=FaultSpec(solver_error_rate=0.05, session_build_error_rate=0.10),
        slo=SLOTarget(
            p95_latency_ms=5000.0,
            max_shed_rate=0.5,
            max_deadline_miss_rate=0.25,
            max_error_rate=0.02,
        ),
    ),
    "hotkey": Scenario(
        name="hotkey",
        description="traffic sharded over 4 configurations with one shard taking ~90%",
        deadline_ms=1000.0,
        deadline_fraction=0.5,
        num_configs=4,
        hot_fraction=0.9,
        faults=FaultSpec(solver_error_rate=0.05, session_build_error_rate=0.15),
        slo=SLOTarget(
            p95_latency_ms=3000.0,
            max_shed_rate=0.5,
            max_deadline_miss_rate=0.25,
            max_error_rate=0.02,
        ),
    ),
    "cache_hostile": Scenario(
        name="cache_hostile",
        description="repeat-free stream plus random cache evictions — correctness without hits",
        repeat_ratio=0.0,
        faults=FaultSpec(cache_eviction_rate=0.5, cache_eviction_count=8),
        slo=SLOTarget(p95_latency_ms=3000.0, max_error_rate=0.02),
    ),
    "slow_consumer": Scenario(
        name="slow_consumer",
        description="windowed closed-loop client drains responses slowly — backpressure end to end",
        priority_levels=(0, 1),
        repeat_ratio=0.0,
        client_window=3,
        faults=FaultSpec(solver_error_rate=0.05, slow_solve_rate=0.10),
        slo=SLOTarget(p95_latency_ms=5000.0, max_error_rate=0.02),
    ),
}


def apply_scenario(
    requests: Sequence[FitRequest], scenario: Scenario, *, seed: int = 0
) -> list[FitRequest]:
    """Stamp a scenario's traffic shape onto a built workload.

    Content-affecting choices (heavy-tail conversion, shard routing) are
    assigned per distinct request *content* — keyed by the pre-scenario
    :meth:`~repro.service.scheduler.FitRequest.fingerprint` — so bit-exact
    repeats in the base workload stay bit-exact repeats after stamping and
    the result cache keeps seeing them.  Scheduling-only hints (priority,
    deadline) vary freely per request.  All draws come from a dedicated
    stream seeded by ``(seed, scenario name)``, leaving the base workload
    byte-identical to the plain generator.

    Parameters
    ----------
    requests:
        The :func:`build_workload` output to reshape.
    scenario:
        The scenario whose shape to apply.
    seed:
        Seed of the stamping stream (independent of the workload seed's
        effect on content).

    Returns
    -------
    list[FitRequest]
        New request objects (the input list is not mutated).
    """
    rng = np.random.default_rng(
        [int(seed)] + [ord(c) for c in scenario.name]
    )
    content: dict[str, tuple] = {}
    stamped: list[FitRequest] = []
    for request in requests:
        key = request.fingerprint()
        assigned = content.get(key)
        if assigned is None:
            heavy = rng.random() < scenario.heavy_fraction
            config: Hashable = request.config
            if scenario.num_configs > 1:
                if scenario.hot_fraction > 0.0 and rng.random() < scenario.hot_fraction:
                    config = "shard-0"
                else:
                    config = f"shard-{1 + int(rng.integers(scenario.num_configs - 1))}"
            assigned = content[key] = (heavy, config)
        heavy, config = assigned
        priority = int(
            scenario.priority_levels[int(rng.integers(len(scenario.priority_levels)))]
        )
        deadline = None
        if scenario.deadline_ms is not None and rng.random() < scenario.deadline_fraction:
            deadline = float(scenario.deadline_ms)
        request = replace(
            request, config=config, priority=priority, deadline_ms=deadline
        )
        if heavy:
            request = replace(
                request,
                lam=None,
                lambda_method="gcv",
                lambda_grid=HEAVY_LAMBDA_GRID,
            )
        stamped.append(request)
    return stamped


def arrival_offsets(
    scenario: Scenario, num_requests: int, *, seed: int = 0
) -> np.ndarray:
    """Submit-time offsets (seconds from the first submit) for a scenario.

    ``burst_size=0`` returns all zeros (open-loop: everything submits at
    once).  Otherwise requests arrive in back-to-back waves whose sizes are
    Poisson-distributed around ``burst_size``, separated by
    ``burst_pause_ms`` quiet gaps — the classic bursty arrival process that
    defeats purely time-windowed batching.  Deterministic in ``seed``.
    """
    offsets = np.zeros(int(num_requests))
    if scenario.burst_size <= 0 or num_requests <= 0:
        return offsets
    rng = np.random.default_rng([int(seed), 1 + len(scenario.name)])
    now = 0.0
    remaining = 1 + int(rng.poisson(scenario.burst_size))
    for index in range(int(num_requests)):
        if remaining == 0:
            now += scenario.burst_pause_ms / 1e3
            remaining = 1 + int(rng.poisson(scenario.burst_size))
        offsets[index] = now
        remaining -= 1
    return offsets


def evaluate_slo(snapshot: Mapping, slo: SLOTarget) -> dict:
    """Judge one telemetry snapshot against an :class:`SLOTarget`.

    Parameters
    ----------
    snapshot:
        A :meth:`~repro.service.telemetry.Telemetry.snapshot` dict.
    slo:
        The thresholds to judge against.

    Returns
    -------
    dict
        ``checks`` maps each criterion to ``(observed, limit, ok)``;
        ``passed`` is the conjunction.
    """
    counters = snapshot.get("counters", {})
    requests = max(1, counters.get("requests", 0))
    latency = snapshot.get("histograms", {}).get("latency_seconds", {})
    p95_ms = float(latency.get("p95", 0.0)) * 1e3
    checks = {
        "p95_latency_ms": (p95_ms, slo.p95_latency_ms, p95_ms <= slo.p95_latency_ms),
        "shed_rate": (
            float(snapshot.get("shed_rate", 0.0)),
            slo.max_shed_rate,
            float(snapshot.get("shed_rate", 0.0)) <= slo.max_shed_rate,
        ),
        "deadline_miss_rate": (
            float(snapshot.get("deadline_miss_rate", 0.0)),
            slo.max_deadline_miss_rate,
            float(snapshot.get("deadline_miss_rate", 0.0))
            <= slo.max_deadline_miss_rate,
        ),
        "error_rate": (
            counters.get("errors", 0) / requests,
            slo.max_error_rate,
            counters.get("errors", 0) / requests <= slo.max_error_rate,
        ),
    }
    return {"checks": checks, "passed": all(ok for _, _, ok in checks.values())}
