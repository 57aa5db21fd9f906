"""Interleaved A/B of the repository benchmark against a git ref.

Usage (from the repository root)::

    python3 tools/ab.py --against <ref> [--pairs N] [--seconds S] [--seed K] [--workload W ...]

Checks ``<ref>`` out into a temporary git worktree (the *parent*) and
compares it with this checkout, uncommitted edits included (the *change*).
For each workload, ``perfbench/run.py --trace 0`` runs once in each tree per
pair, and the tree that runs first alternates from pair to pair, so a drift
in host speed hits both sides alike.  The end-to-end metrics, their
direction and their bounds come from ``BENCHMARK.json``; by default every
workload it gates runs for 10 pairs of ``run_seconds`` at seed 1.
``--workload`` also takes the perfbench workloads it does not gate (any name
in ``perfbench.workloads.WORKLOADS``, e.g. ``select_fresh``), judged by the
same metrics and bounds.

Per workload and metric the report gives both sides' medians and quartiles,
the pairs each side won and a verdict (:func:`verdict`).  The exit status is
1 when a metric is worse by more than its bound or the change fails a larger
share of operations than the parent, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
#: Share of the pairs one side must win for a "better" or "worse" verdict.
WIN_SHARE = 0.9


def verdict(parent, change, better: str, bound: float) -> dict:
    """Judge one metric from its per-pair samples.

    ``better`` or ``worse``: one side wins at least ``WIN_SHARE`` of the
    pairs and the gap between the medians exceeds the parent's IQR.
    ``unresolved``: the parent's IQR is wider than ``bound`` times its
    median, so the runs cannot resolve a change of that size, unless every
    run of the change beats every run of the parent.  ``within noise``: any
    other case.

    Parameters
    ----------
    parent, change:
        One sample per pair from each tree, in pair order.
    better:
        ``"higher"`` or ``"lower"``, the direction in which the metric improves.
    bound:
        Relative worsening the metric is allowed (``BENCHMARK.json``).

    Returns
    -------
    dict
        ``parent`` and ``change`` quartiles ``[q1, median, q3]``, the pairs
        each side won (``wins``; ties count for neither), the relative
        median ``gap`` (positive where the change is better), the
        ``verdict`` and ``fail``: a worse verdict whose gap exceeds ``bound``.
    """
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    parent = sign * np.asarray(parent, dtype=float)
    change = sign * np.asarray(change, dtype=float)
    if parent.size == 0 or parent.size != change.size:
        raise ValueError("need the same non-zero number of samples on each side")
    q_parent = np.percentile(parent, [25, 50, 75])
    q_change = np.percentile(change, [25, 50, 75])
    iqr = q_parent[2] - q_parent[0]
    scale = abs(q_parent[1]) or 1.0
    gap = (q_change[1] - q_parent[1]) / scale
    wins = {"parent": int(np.sum(parent > change)), "change": int(np.sum(change > parent))}
    if iqr / scale > bound and change.min() <= parent.max():
        outcome = "unresolved"
    elif abs(gap) * scale <= iqr:
        outcome = "within noise"
    elif wins["change"] >= WIN_SHARE * parent.size:
        outcome = "better"
    elif wins["parent"] >= WIN_SHARE * parent.size:
        outcome = "worse"
    else:
        outcome = "within noise"
    return {  # quartiles back in the metric's own sign, in ascending order
        "parent": sorted((sign * q_parent).tolist()),
        "change": sorted((sign * q_change).tolist()),
        "wins": wins,
        "gap": float(gap),
        "verdict": outcome,
        "fail": outcome == "worse" and -gap > bound,
    }


def compare(runs: dict, metrics: list[dict]) -> tuple[list[str], bool]:
    """Report one workload's pairs and whether the change passes the gate.

    Parameters
    ----------
    runs:
        ``{"parent": [...], "change": [...]}``: each side's parsed result
        lines in pair order, ``None`` for a run that printed none.
    metrics:
        The ``end_to_end`` entries of ``BENCHMARK.json``.

    Returns
    -------
    tuple[list[str], bool]
        The report lines and ``True`` when no metric fails and the change
        fails no larger share of operations than the parent.
    """
    lines, ok = [], True
    shares = {}
    for side in ("parent", "change"):
        done = [run or {"attempted": 1, "failed": 1} for run in runs[side]]
        failed, attempted = sum(r["failed"] for r in done), sum(r["attempted"] for r in done)
        shares[side] = failed / max(1, attempted)
        lines.append(f"  {side:<6} operations failed/attempted: {failed}/{attempted}")
    if shares["change"] > shares["parent"]:
        ok = False
        lines.append("  FAIL: the change fails a larger share of operations")
    lines.append(f"  {'metric':<16} {'parent median [q1, q3]':<32} "
                 f"{'change median [q1, q3]':<32} {'wins p/c':<9} {'gap':>7}  verdict")
    for metric in metrics:
        name = metric["name"]
        pairs = [
            (p["metrics"][name]["value"], c["metrics"][name]["value"])
            for p, c in zip(runs["parent"], runs["change"])
            if p and c and name in p["metrics"] and name in c["metrics"]
        ]
        if not pairs:
            lines.append(f"  {name:<16} no pair measured it")
            continue
        result = verdict(*zip(*pairs), metric["better"], metric["bound"])
        ok &= not result["fail"]
        sides = [
            f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]" for q in (result["parent"], result["change"])
        ]
        wins = f"{result['wins']['parent']}/{result['wins']['change']}"
        flag = f" (FAIL: beyond bound {metric['bound']:g})" if result["fail"] else ""
        lines.append(f"  {name:<16} {sides[0]:<32} {sides[1]:<32} {wins:<9} "
                     f"{result['gap']:>+7.1%}  {result['verdict']}{flag}")
    return lines, ok


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


@contextlib.contextmanager
def parent_tree(commit: str):
    """A detached worktree of ``commit`` in a temporary directory, removed on exit."""
    with tempfile.TemporaryDirectory(prefix="ab-") as scratch:
        tree = Path(scratch) / "parent"
        _git("worktree", "add", "--detach", str(tree), commit)
        try:
            yield tree
        finally:
            _git("worktree", "remove", "--force", str(tree))


def run_tree(tree: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """One ``--trace 0`` benchmark run in ``tree``: its last JSON line, if any."""
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    for line in reversed(completed.stdout.splitlines()):
        if line.startswith("{"):
            try:
                return json.loads(line)
            except ValueError:
                return None
    return None


def workload_names() -> list[str]:
    """Every workload ``perfbench/run.py`` knows, gated or not."""
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.workloads import WORKLOADS

    return list(WORKLOADS)


def main(argv: list[str] | None = None) -> int:
    """Run the A/B and return the exit status."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, help="git ref of the parent")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", nargs="+", choices=workload_names(), default=names)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    commit = _git("rev-parse", "--verify", f"{args.against}^{{commit}}")
    ok = True
    with parent_tree(commit) as parent:
        trees = {"parent": parent, "change": ROOT}
        for workload in args.workload:
            print(f"{workload}: {args.pairs} pairs of {args.seconds:g} s runs, seed {args.seed}, "
                  f"parent {commit[:12]}", flush=True)
            runs: dict = {"parent": [], "change": []}
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(run_tree(trees[side], workload, args.seed, args.seconds))
            lines, passed = compare(runs, spec["end_to_end"])
            print("\n".join(lines), flush=True)
            ok &= passed
    print("ab: ok" if ok else "ab: FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
