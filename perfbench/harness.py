"""Service stack set-up, pass runners, response store and verification.

Everything here goes through the program's public API with default
settings (see ``README.md``): ``MicroBatchScheduler(SessionPool(factory))``,
``serve_in_thread(scheduler)``, ``FitHTTPClient`` and, for the reference,
plain ``Deconvolver.fit``.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from perfbench.workloads import (
    LOAD_THREADS,
    NUM_BASIS,
    NUM_CELLS,
    PHASE_BINS,
    WORKLOADS,
    Workload,
    grid_schedules,
)
from repro.cellcycle.kernel import KernelBuilder
from repro.cellcycle.parameters import CellCycleParameters
from repro.service import (
    MicroBatchScheduler,
    SessionFactory,
    SessionPool,
    WorkloadSpec,
    build_workload,
)
from repro.service.net import FitHTTPClient, WireFit, serve_in_thread

#: Coefficient agreement required between a response and its reference.
COEFFICIENT_TOLERANCE = 1e-10
#: Seconds a pass may take before its unresolved requests count as failed.
PASS_TIMEOUT_S = 120.0
#: Seconds the reference processes may take together.
REFERENCE_TIMEOUT_S = 120.0
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"


class Tracer:
    """In-memory spans: ``(name, start, end, span id, parent id, key)``.

    ``key`` names the pass, request or grid a span belongs to.  Spans are
    kept in a list and written out once, when the benchmark ends.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)

    def reserve(self) -> int:
        """A span id for a parent whose children are recorded first."""
        return next(self._ids)

    def record(self, name, start, end, *, parent=0, key=None, span_id=None) -> int:
        span_id = self.reserve() if span_id is None else span_id
        self.spans.append((name, start, end, span_id, parent, key))
        return span_id

    @contextmanager
    def span(self, name, *, parent=0, key=None):
        """Record the ``with`` block as one span; yields its id."""
        span_id = self.reserve()
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            self.record(name, start, time.perf_counter(), parent=parent, key=key, span_id=span_id)

    def durations(self, name: str) -> np.ndarray:
        """Durations in seconds of every span called ``name``, in record order."""
        return np.array([end - start for n, start, end, *_ in self.spans if n == name])

    def export(self, origin: float) -> list[dict]:
        """The spans as dicts, times in seconds since ``origin``."""
        return [
            {"name": name, "start": start - origin, "end": end - origin,
             "id": span_id, "parent": parent, "key": key}
            for name, start, end, span_id, parent, key in self.spans
        ]


@dataclass
class Pass:
    """The generated inputs of one pass."""

    index: int
    requests: list
    wires: list | None = None


@dataclass
class PassRecord:
    """What one pass returned and how long it took.

    ``submitted`` is when ``submit_many`` returned (bulk) and equals
    ``start`` otherwise; ``latencies`` are seconds from submit to response.
    ``errors`` maps a request position to the repr of its exception.
    """

    index: int
    start: float
    submitted: float
    end: float
    latencies: np.ndarray
    lams: np.ndarray
    coefficients: np.ndarray
    errors: dict = field(default_factory=dict)
    mismatched: int = 0

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def size(self) -> int:
        return len(self.lams)

    @property
    def verified(self) -> int:
        """Responses that arrived and matched the reference (after :func:`verify`)."""
        return self.size - len(self.errors) - self.mismatched


def generate(kernels, workload: Workload, seed: int, index: int) -> Pass:
    """Build pass ``index`` of ``workload`` (wires too when it goes over HTTP)."""
    requests = build_workload(kernels, WorkloadSpec(**workload.spec_fields(seed, index)))
    wires = None
    if workload.transport == "http":
        wires = [WireFit.from_request(request) for request in requests]
    return Pass(index, requests, wires)


def _collect(index, start, submitted, end, latencies, outcomes) -> PassRecord:
    """Turn per-request results or exceptions into a :class:`PassRecord`."""
    size = len(outcomes)
    lams = np.full(size, np.nan)
    coefficients = np.full((size, NUM_BASIS), np.nan)
    errors = {}
    for position, outcome in enumerate(outcomes):
        if isinstance(outcome, BaseException) or outcome is None:
            errors[position] = repr(outcome)
            continue
        values = np.asarray(outcome.coefficients, dtype=float)
        if values.shape != (NUM_BASIS,):
            errors[position] = f"coefficient shape {values.shape}"
            continue
        lams[position] = outcome.lam
        coefficients[position] = values
    return PassRecord(index, start, submitted, end, latencies, lams, coefficients, errors)


def failed_record(index: int, size: int, exc: BaseException) -> PassRecord:
    """A pass that could not run at all: every request counts as failed."""
    now = time.perf_counter()
    return _collect(index, now, now, now, np.full(size, np.nan), [exc] * size)


class _Latch:
    """Stamps each future's completion time and signals when all are done."""

    def __init__(self, size: int) -> None:
        self.done = np.full(size, np.nan)
        self._left = size
        self._lock = threading.Lock()
        self.event = threading.Event()
        if size == 0:
            self.event.set()

    def stamp(self, position: int, _future) -> None:
        self.done[position] = time.perf_counter()
        with self._lock:
            self._left -= 1
            if self._left == 0:
                self.event.set()


class Stack:
    """The service under test, built with default settings.

    ``scheduler`` is always present; ``handle`` and ``clients`` only for
    HTTP workloads (or after :meth:`start_http`).  Close it when done.
    """

    def __init__(self, workload: Workload, kernels, factory) -> None:
        self.workload = workload
        self.kernels = kernels
        self.factory = factory
        self.scheduler = MicroBatchScheduler(SessionPool(factory))
        self.handle = None
        self.clients: list = []
        self._threads = ThreadPoolExecutor(LOAD_THREADS, thread_name_prefix="perfbench-load")
        if workload.transport == "http":
            try:
                self.start_http()
            except BaseException:
                self.close()
                raise

    def start_http(self) -> None:
        """Serve the scheduler over HTTP and open one client per load thread."""
        if self.handle is None:
            self.handle = serve_in_thread(self.scheduler)
            self.clients = [
                FitHTTPClient(self.handle.host, self.handle.port) for _ in range(LOAD_THREADS)
            ]

    def close(self) -> None:
        for client in self.clients:
            client.close()
        if self.handle is not None:
            self.handle.close()
        self.scheduler.shutdown()
        self._threads.shutdown(wait=True)

    # -- passes -----------------------------------------------------------

    def run_pass(self, batch: Pass, *, mode=None, tracer=None) -> PassRecord:
        """Serve one pass in ``mode`` (default: the workload's transport).

        ``"bulk"`` hands the whole pass to ``submit_many``; ``"http"`` and
        ``"closed"`` run :data:`LOAD_THREADS` closed loops, one request at a
        time, over HTTP or through ``scheduler.submit(r).result()``.  A pass
        that cannot run at all comes back with every request failed.
        """
        mode = mode or self.workload.transport
        try:
            if mode == "bulk":
                return self._bulk(batch, tracer)
            if mode == "http":
                self.start_http()
                wires = batch.wires or [WireFit.from_request(r) for r in batch.requests]
                calls = [client.fit for client in self.clients]
                return self._closed_loop(batch.index, wires, calls, "net.client.fit", tracer)
            calls = [self._submit_one] * LOAD_THREADS
            return self._closed_loop(batch.index, batch.requests, calls, "service.submit", tracer)
        except Exception as exc:  # a removed or broken API fails the pass, loudly
            return failed_record(batch.index, len(batch.requests), exc)

    def _submit_one(self, request):
        return self.scheduler.submit(request).result()

    def _bulk(self, batch: Pass, tracer) -> PassRecord:
        size = len(batch.requests)
        latch = _Latch(size)
        start = time.perf_counter()
        futures = self.scheduler.submit_many(batch.requests)
        submitted = time.perf_counter()
        for position, future in enumerate(futures):
            future.add_done_callback(partial(latch.stamp, position))
        latch.event.wait(PASS_TIMEOUT_S)
        end = float(np.nanmax(latch.done)) if size else submitted
        if tracer is not None:
            root = tracer.reserve()
            tracer.record("service.submit_many", start, submitted, parent=root, key=batch.index)
            tracer.record("service.resolve", submitted, end, parent=root, key=batch.index)
            tracer.record("pass", start, end, key=batch.index, span_id=root)
        outcomes = [
            (future.exception() or future.result()) if future.done() else TimeoutError("unresolved")
            for future in futures
        ]
        return _collect(batch.index, start, submitted, end, latch.done - start, outcomes)

    def _closed_loop(self, index, items, calls, span_name, tracer) -> PassRecord:
        size = len(items)
        latencies = np.full(size, np.nan)
        outcomes: list = [None] * size
        root = tracer.reserve() if tracer is not None else 0

        def loop(lane: int) -> None:
            call = calls[lane]
            for position in range(lane, size, LOAD_THREADS):
                begin = time.perf_counter()
                try:
                    outcomes[position] = call(items[position])
                except Exception as exc:  # counted as a failed request
                    outcomes[position] = exc
                finish = time.perf_counter()
                latencies[position] = finish - begin
                if tracer is not None:
                    tracer.record(span_name, begin, finish, parent=root, key=(index, position))

        start = time.perf_counter()
        lanes = [self._threads.submit(loop, lane) for lane in range(LOAD_THREADS)]
        for lane in lanes:
            lane.result(PASS_TIMEOUT_S)
        end = time.perf_counter()
        if tracer is not None:
            tracer.record("pass", start, end, key=index, span_id=root)
        return _collect(index, start, start, end, latencies, outcomes)


def build_kernels(tracer: Tracer | None = None, parent: int = 0) -> list:
    """The population kernel of every grid (seeded, so identical each time)."""
    builder = KernelBuilder(CellCycleParameters(), num_cells=NUM_CELLS, phase_bins=PHASE_BINS)
    kernels = []
    for index, times in enumerate(grid_schedules()):
        begin = time.perf_counter()
        kernels.append(builder.build(times, rng=index))
        if tracer is not None:
            end = time.perf_counter()
            tracer.record("cellcycle.kernel_build", begin, end, parent=parent, key=index)
    return kernels


def make_factory(kernels) -> SessionFactory:
    return SessionFactory(parameters=CellCycleParameters(), num_basis=NUM_BASIS, kernels=kernels)


def set_up(workload: Workload, seed: int, tracer: Tracer | None = None) -> tuple[Stack, float]:
    """Build the stack and run one warm pass; returns it with its set-up seconds.

    Set-up time covers the kernel builds, factory, pool and scheduler
    construction, the server start (HTTP only) and the warm pass, but not
    the generation of the warm pass's inputs.
    """
    root = tracer.reserve() if tracer is not None else 0
    start = time.perf_counter()
    kernels = build_kernels(tracer, root)
    stack = Stack(workload, kernels, make_factory(kernels))
    built = time.perf_counter()
    warm = generate(kernels, workload, seed, 0)
    generated = time.perf_counter()
    record = stack.run_pass(warm)
    end = time.perf_counter()
    if tracer is not None:
        tracer.record("setup", start, end, key=workload.name, span_id=root)
    if record.errors:
        stack.close()
        raise RuntimeError(f"warm pass failed: {next(iter(record.errors.values()))}")
    return stack, (built - start) + (end - generated)


class ResponseStore:
    """Pass records spilled to an unlinked file under ``directory``.

    The benchmark's own memory then stays flat however many passes a run
    completes, so ``peak_rss_mb`` measures the service, not the harness.
    """

    def __init__(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        self._file = tempfile.TemporaryFile(dir=directory)
        self._meta: list[tuple] = []

    def add(self, record: PassRecord) -> None:
        for array in (record.latencies, record.lams, record.coefficients):
            np.save(self._file, array)
        self._meta.append(
            (record.index, record.start, record.submitted, record.end, record.errors)
        )

    def __len__(self) -> int:
        return len(self._meta)

    def __iter__(self):
        self._file.seek(0)
        for index, start, submitted, end, errors in self._meta:
            arrays = [np.load(self._file) for _ in range(3)]
            yield PassRecord(index, start, submitted, end, *arrays, errors)
        self._file.seek(0, 2)

    def close(self) -> None:
        self._file.close()


def reference_fit(deconvolver, request):
    """The serial reference: one plain ``Deconvolver.fit`` call."""
    return deconvolver.fit(
        request.times,
        request.measurements,
        sigma=request.sigma,
        lam=request.lam,
        lambda_method=request.lambda_method,
        lambda_grid=request.lambda_grid,
        rng=request.rng,
    )


def content_key(request) -> tuple:
    grid = None if request.lambda_grid is None else np.asarray(request.lambda_grid).tobytes()
    return (
        np.asarray(request.times).tobytes(),
        np.asarray(request.measurements).tobytes(),
        request.lam,
        request.lambda_method,
        grid,
    )


@dataclass
class Verdict:
    """Outcome of checking every stored response against the reference."""

    attempted: int = 0
    failed: int = 0
    mismatched: int = 0

    @property
    def bad(self) -> int:
        return self.failed + self.mismatched


def reference_passes(workload_name: str, seed: int, indices) -> dict:
    """Serial reference of each pass: ``{index: (lams, coefficients)}``.

    Runs in a worker process: builds its own kernels and deconvolver, then
    fits each distinct request content once with plain ``Deconvolver.fit``.
    """
    kernels = build_kernels()
    deconvolver = make_factory(kernels)("perfbench-reference")
    workload = WORKLOADS[workload_name]
    out = {}
    for index in indices:
        requests = build_workload(kernels, WorkloadSpec(**workload.spec_fields(seed, index)))
        lams = np.empty(len(requests))
        coefficients = np.empty((len(requests), NUM_BASIS))
        fits: dict = {}
        for position, request in enumerate(requests):
            key = content_key(request)
            if key not in fits:
                fits[key] = reference_fit(deconvolver, request)
            lams[position] = fits[key].lam
            coefficients[position] = fits[key].coefficients
        out[index] = (lams, coefficients)
    return out


def references(workload: Workload, seed: int, indices: list) -> dict:
    """:func:`reference_passes` split over :data:`LOAD_THREADS` child processes.

    Each child is a plain ``python -m perfbench.harness`` process (no
    ``multiprocessing``, so no helper process outlives the benchmark) that
    writes its share to an ``.npz`` file.  Every child is waited for, and
    killed first if anything goes wrong.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out: dict = {}
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        children = []
        try:
            for lane in range(LOAD_THREADS):
                share = indices[lane::LOAD_THREADS]
                if not share:
                    continue
                path = Path(scratch) / f"reference-{lane}.npz"
                command = [sys.executable, "-m", "perfbench.harness", workload.name, str(seed),
                           str(path), ",".join(map(str, share))]
                children.append((subprocess.Popen(command, cwd=ROOT, env=env), path))
            deadline = time.monotonic() + REFERENCE_TIMEOUT_S
            for child, path in children:
                code = child.wait(max(0.0, deadline - time.monotonic()))
                if code != 0:
                    raise RuntimeError(f"reference process exited with code {code}")
                with np.load(path) as saved:
                    for index, lams, coefficients in zip(
                        saved["indices"], saved["lams"], saved["coefficients"]
                    ):
                        out[int(index)] = (lams, coefficients)
        finally:
            for child, _path in children:
                if child.poll() is None:
                    child.kill()
                child.wait()
    return out


def _reference_main(argv: list) -> None:
    """Child entry of :func:`references`: ``WORKLOAD SEED OUT.npz I,J,...``."""
    name, seed, path, indices = argv
    fits = reference_passes(name, int(seed), [int(i) for i in indices.split(",")])
    order = sorted(fits)
    np.savez(
        path,
        indices=np.array(order),
        lams=np.stack([fits[i][0] for i in order]),
        coefficients=np.stack([fits[i][1] for i in order]),
    )


def verify(workload: Workload, seed: int, records: list) -> Verdict:
    """Compare every stored response with its serial reference fit.

    Lambda must match exactly and coefficients to within
    :data:`COEFFICIENT_TOLERANCE`.  Sets each record's ``mismatched`` count
    and returns the totals.
    """
    expected = references(workload, seed, sorted({record.index for record in records}))
    verdict = Verdict()
    for record in records:
        lams, coefficients = expected[record.index]
        ok = (record.lams == lams) & (
            np.max(np.abs(record.coefficients - coefficients), axis=1) <= COEFFICIENT_TOLERANCE
        )
        failed = np.zeros(record.size, dtype=bool)
        failed[list(record.errors)] = True
        record.mismatched = int(np.sum(~ok & ~failed))
        verdict.attempted += record.size
        verdict.failed += len(record.errors)
        verdict.mismatched += record.mismatched
    return verdict


if __name__ == "__main__":
    _reference_main(sys.argv[1:])
