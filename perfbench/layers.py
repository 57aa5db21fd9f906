"""Per-layer metrics of the traced run.

Each probe times calls into one layer's public functions from the
benchmark's own code and records them as spans; the metrics are read back
from those spans and from the pass records.  Layers and what they should
move (end-to-end metric, workload):

* ``cellcycle`` — kernel builds -> ``setup_s``.
* ``core`` — first ``fit_many`` per grid on a fresh deconvolver
  -> ``setup_s``; the numerics floor (a pass's distinct requests as direct
  ``fit_many`` calls grouped by ``FitRequest.batch_key()``) ->
  ``throughput_rps`` on ``bulk_mixed`` (fixed) and ``select_fresh``
  (select); one ``Deconvolver.fit`` -> ``latency_p50_ms`` on ``http_mixed``.
* ``service`` — fingerprinting, ``submit_many`` and resolve time, the
  residual and overhead over the floor, coalescing and cache hits ->
  ``throughput_rps`` on the bulk workloads; the wire-free closed loop ->
  ``latency_p50_ms`` on ``http_mixed``.
* ``service.net`` — HTTP p50 minus the closed loop, and the codec per
  request -> ``latency_p50_ms`` and ``throughput_rps`` on ``http_mixed``.

The probes run on every workload, on passes drawn from that workload's mix,
so a layer's figure can be compared across workloads.
"""

from __future__ import annotations

import time

import numpy as np

from perfbench.harness import PassRecord, Stack, Tracer, content_key, generate, reference_fit
from perfbench.workloads import PROBE_OFFSET
from repro.service.net import Frame, WireFit, WireResult, decode_frame

#: Passes replayed through the bulk, floor and fingerprint probes.
PROBE_PASSES = 6
#: Passes replayed through each one-request-at-a-time closed loop.
LOOP_PASSES = 3
#: Fresh deconvolvers timed for ``core.session_warm_s`` (median reported).
WARM_REPEATS = 3


def _groups(requests) -> list[list]:
    """Distinct request contents grouped by ``FitRequest.batch_key()``."""
    distinct = {}
    for request in requests:
        distinct.setdefault(content_key(request), request)
    groups: dict = {}
    for request in distinct.values():
        groups.setdefault(request.batch_key(), []).append(request)
    return list(groups.values())


def _fit_group(deconvolver, group):
    """One direct ``fit_many`` call over a batch-key group."""
    first = group[0]
    return deconvolver.fit_many(
        first.times,
        np.column_stack([request.measurements for request in group]),
        sigma=first.sigma,
        lam=None if first.lam is None else [request.lam for request in group],
        lambda_method=first.lambda_method,
        lambda_grid=first.lambda_grid,
        rng=first.rng,
    )


def _floor(deconvolver, requests, tracer, key) -> tuple[float, float]:
    """Seconds of the fixed-lambda and the selection groups of one pass."""
    seconds = {True: 0.0, False: 0.0}
    for group in _groups(requests):
        fixed = group[0].lam is not None
        start = time.perf_counter()
        _fit_group(deconvolver, group)
        end = time.perf_counter()
        tracer.record("core.floor_fixed" if fixed else "core.floor_select", start, end, key=key)
        seconds[fixed] += end - start
    return seconds[True], seconds[False]


def _session_warm(stack: Stack, requests, tracer) -> float:
    """Seconds of the first ``fit_many`` per grid on a fresh deconvolver."""
    deconvolver = stack.factory("perfbench-warm-probe")
    grids = set()
    total = 0.0
    for group in _groups(requests):
        grid = group[0].times.tobytes()
        if grid in grids:
            continue
        grids.add(grid)
        start = time.perf_counter()
        _fit_group(deconvolver, group)
        end = time.perf_counter()
        tracer.record("core.session_warm", start, end, key=len(grids))
        total += end - start
    return total


def _per_setup_sum(tracer: Tracer, name: str) -> float:
    """Median over set-ups of the summed durations of ``name`` spans."""
    sums: dict = {}
    for span_name, start, end, _id, parent, _key in tracer.spans:
        if span_name == name:
            sums[parent] = sums.get(parent, 0.0) + (end - start)
    return float(np.median(list(sums.values())))


def _mean_us(tracer: Tracer, name: str) -> float:
    return float(np.mean(tracer.durations(name))) * 1e6


def _p50_ms(records: list[PassRecord]) -> float:
    return float(np.nanmedian(np.concatenate([r.latencies for r in records]))) * 1e3


def measure(stack: Stack, seed: int, tracer: Tracer, store) -> dict:
    """Run every layer probe; returns ``{metric name: (value, unit)}``.

    Every pass a probe serves through the scheduler or the wire is added
    to ``store`` and verified with the timed passes.
    """
    kernels, workload = stack.kernels, stack.workload

    def passes(first: int, count: int = PROBE_PASSES) -> list:
        return [generate(kernels, workload, seed, PROBE_OFFSET + first + k) for k in range(count)]

    def serve(batches, mode) -> list[PassRecord]:
        records = [stack.run_pass(batch, mode=mode, tracer=tracer) for batch in batches]
        for record in records:
            store.add(record)
        return records

    bulk = passes(0)
    warm = [_session_warm(stack, bulk[0].requests, tracer) for _ in range(WARM_REPEATS)]

    floor_deconvolver = stack.factory("perfbench-floor")
    _floor(floor_deconvolver, bulk[0].requests, Tracer(), None)  # warm, untimed
    replays = serve(bulk, "bulk")
    floors = np.array(
        [_floor(floor_deconvolver, batch.requests, tracer, batch.index) for batch in bulk]
    )
    walls = np.array([r.wall for r in replays])
    submits = np.array([r.submitted - r.start for r in replays])
    floor_total = floors.sum(axis=1)

    for batch in bulk:
        for request in batch.requests:
            with tracer.span("service.fingerprint", key=batch.index):
                request.fingerprint()

    fits = []
    for position, request in enumerate(bulk[0].requests):
        with tracer.span("core.fit", key=position):
            fits.append(reference_fit(floor_deconvolver, request))

    for request in bulk[0].requests:
        with tracer.span("net.encode"):
            Frame("fit", WireFit.from_request(request).to_payload()).encode()
    replies = [Frame("result", WireResult.from_result(fit).to_payload()).encode() for fit in fits]
    for text in replies:
        with tracer.span("net.decode"):
            WireResult.from_payload(decode_frame(text).payload)

    closed_p50 = _p50_ms(serve(passes(100, LOOP_PASSES), "closed"))
    http_p50 = _p50_ms(serve(passes(200, LOOP_PASSES), "http"))

    return {
        "cellcycle.kernel_build_s": (_per_setup_sum(tracer, "cellcycle.kernel_build"), "s"),
        "core.session_warm_s": (float(np.median(warm)), "s"),
        "core.floor_fixed_ms": (float(np.median(floors[:, 0])) * 1e3, "ms"),
        "core.floor_select_ms": (float(np.median(floors[:, 1])) * 1e3, "ms"),
        "core.fit_p50_ms": (float(np.median(tracer.durations("core.fit"))) * 1e3, "ms"),
        "service.fingerprint_us": (_mean_us(tracer, "service.fingerprint"), "us"),
        "service.submit_ms": (float(np.median(submits)) * 1e3, "ms"),
        "service.resolve_ms": (float(np.median(walls - submits)) * 1e3, "ms"),
        "service.pass_ms": (float(np.median(walls)) * 1e3, "ms"),
        "service.residual_ms": (float(np.median(walls - submits - floor_total)) * 1e3, "ms"),
        "service.overhead_ratio": (float(np.median(walls / floor_total)), "ratio"),
        "service.closed_loop_p50_ms": (closed_p50, "ms"),
        "net.http_p50_ms": (http_p50, "ms"),
        "net.wire_p50_ms": (http_p50 - closed_p50, "ms"),
        "net.encode_us": (_mean_us(tracer, "net.encode"), "us"),
        "net.decode_us": (_mean_us(tracer, "net.decode"), "us"),
    }
