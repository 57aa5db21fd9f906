"""Repository benchmark driver.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bulk_mixed --seed 1 --seconds 36 --trace 0

Runs one named workload (see ``perfbench/workloads.py``) against the
in-process fit service for ``--seconds`` of timed passes, checks every
response against serial ``Deconvolver.fit`` (exact lambda, coefficients to
1e-10), prints every metric by name with its unit, and ends with one JSON
line ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports the per-layer
metrics and writes the spans to ``perfbench/out/``.

The benchmark calls only public APIs and builds everything with default
settings, so it keeps measuring what users get when settings or engines are
removed.  An operation that cannot run is counted as failed, and the run
exits 1; a checkout without the package exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"  # the same directory as ``harness.OUT_DIR``
#: Rounds per run.  Each round sets up a fresh stack and serves passes 1, 2,
#: ... for ``seconds / ROUNDS``, so every round sees the same content.  The
#: end-to-end figures are medians over rounds, which keeps machine noise
#: shorter than half a run out of them, and each pass is verified against
#: one reference fit however many rounds served it.
ROUNDS = 7
#: Passes generated at a time during the timed phase (generation is untimed).
CHUNK = 8


def _git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def context(workload, seed: int) -> dict:
    """Environment and workload description recorded with every run."""
    import numpy
    import scipy

    from repro.backends import active_backend

    return {
        "workload": workload.describe(seed),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": active_backend().name,
        "git_sha": _git_sha(),
    }


def serve_round(stack, seed: int, seconds: float, store, tracer) -> tuple[float, bool]:
    """Serve passes 1, 2, ... until their summed wall time reaches ``seconds``.

    Returns the summed wall time and whether the round stopped early
    because a whole pass failed (a broken API must not spin the loop).
    """
    from perfbench.harness import generate

    elapsed = 0.0
    index = 1
    while elapsed < seconds:
        chunk = [generate(stack.kernels, stack.workload, seed, index + k) for k in range(CHUNK)]
        index += CHUNK
        for batch in chunk:
            record = stack.run_pass(batch, tracer=tracer)
            store.add(record)
            elapsed += record.wall
            if len(record.errors) == record.size:
                return elapsed, True
            if elapsed >= seconds:
                break
    return elapsed, False


@dataclass
class Round:
    """One round: a fresh stack's set-up time and the passes it served."""

    setup_s: float
    first: int
    end: int
    elapsed: float
    traced: bool
    counters: dict

    def figures(self, records) -> tuple[float, float, float]:
        """Verified throughput, p50 and p99 latency (s) of this round."""
        import numpy as np

        served = records[self.first:self.end]
        latencies = np.concatenate([r.latencies for r in served])
        latencies[np.isnan(latencies)] = np.inf  # a failed request misses every limit
        return (
            sum(r.verified for r in served) / self.elapsed,
            float(np.percentile(latencies, 50)),
            float(np.percentile(latencies, 99)),
        )


def _counters(stack) -> dict:
    return dict(stack.scheduler.telemetry.snapshot()["counters"])


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    import numpy as np

    from perfbench import harness, layers

    tracer = harness.Tracer() if trace else None
    origin = time.perf_counter()
    store = harness.ResponseStore(OUT_DIR)
    rounds: list[Round] = []
    per_layer: dict = {}
    aborted = False
    try:
        for number in range(ROUNDS):
            traced = trace and number % 2 == 1
            stack, setup_s = harness.set_up(workload, seed, tracer)
            try:
                before = _counters(stack)
                first = len(store)
                elapsed, aborted = serve_round(
                    stack, seed, seconds / ROUNDS, store, tracer if traced else None
                )
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                after = _counters(stack)
                delta = {name: after[name] - before.get(name, 0) for name in after}
                rounds.append(Round(setup_s, first, len(store), elapsed, traced, delta))
                if trace and number == ROUNDS - 1 and not aborted:
                    per_layer = layers.measure(stack, seed, tracer, store)
            finally:
                stack.close()
            if aborted:
                print("FAILED: a whole pass failed; the round stopped early")
                break
    except Exception as exc:  # the service could not be built or probed
        print(f"FAILED: {workload.name}: {exc!r}")
        store.close()
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}

    records = list(store)
    store.close()
    verdict = harness.verify(workload, seed, records)
    print(f"requests: {verdict.attempted} attempted, {verdict.failed} failed or refused, "
          f"{verdict.mismatched} mismatched against serial fits")
    figures = np.array([r.figures(records) for r in rounds])
    timed = records[:rounds[-1].end]
    attempted = sum(r.size for r in timed)
    completed = sum(r.verified for r in timed)
    print(f"timed: {len(rounds)} rounds, {len(timed)} passes, {attempted} requests in "
          f"{sum(r.elapsed for r in rounds):.3f} s; error_rate {1 - completed / attempted:.6g}; "
          f"throughput per round {np.round(figures[:, 0], 1).tolist()}")

    if trace:
        counters = sum((Counter(r.counters) for r in rounds), Counter())
        traced_rounds = np.array([r.traced for r in rounds])
        traced_rps = float(np.median(figures[traced_rounds, 0]))
        untraced_rps = float(np.median(figures[~traced_rounds, 0]))
        coalescing = counters.get("batched_requests", 0) / max(1, counters.get("batches", 0))
        per_layer.update({
            "service.coalescing": (coalescing, "req/batch"),
            "service.cache_hit_ratio": (
                (counters.get("cache_hits", 0) + counters.get("deduplicated", 0))
                / max(1, counters.get("requests", 0)),
                "ratio",
            ),
            "trace.traced_rps": (traced_rps, "1/s"),
            "trace.overhead_rps": (traced_rps - untraced_rps, "1/s"),
        })
        metrics = per_layer
    else:
        rps, p50, p99 = np.median(figures, axis=0)
        # Printed but not gated: its run-to-run spread over HTTP reached the
        # largest bound a metric may have (see README.md).
        print(f"{'latency_p99_ms':<28} {p99 * 1e3:>14.6g} ms")
        metrics = {
            "throughput_rps": (float(rps), "1/s"),
            "latency_p50_ms": (float(p50) * 1e3, "ms"),
            "verified_ratio": (completed / attempted, "ratio"),
            "setup_s": (float(np.median([r.setup_s for r in rounds])), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    for name, (value, unit) in metrics.items():
        print(f"{name:<28} {value:>14.6g} {unit}")
    info = context(workload, seed)
    print("context: " + json.dumps(info))
    if trace:
        path = OUT_DIR / f"trace-{workload.name}-seed{seed}.json"
        path.write_text(json.dumps({
            "context": info,
            "setup_s": [r.setup_s for r in rounds],
            "metrics": {name: value for name, (value, _unit) in metrics.items()},
            "spans": tracer.export(origin),
        }))
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    return {
        "correct": verdict.bad == 0 and not aborted,
        "attempted": verdict.attempted,
        "failed": verdict.bad,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no package source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
