"""Tests of the interleaved A/B driver ``tools/ab.py`` on synthetic pairs.

The verdict rule is checked on hand-made per-pair samples; the exit status
through ``main`` with the worktree and the benchmark runs replaced by
synthetic result lines shaped like ``perfbench/run.py``'s.
"""

from __future__ import annotations

import contextlib
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
PARENT_RPS = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def test_separated_gain_is_better():
    change = [value * 1.2 for value in PARENT_RPS]
    result = ab.verdict(PARENT_RPS, change, "higher", 0.25)
    assert result["verdict"] == "better"
    assert result["wins"] == {"parent": 0, "change": 10}
    assert result["gap"] == pytest.approx(0.2, rel=1e-9)
    assert not result["fail"]


@pytest.mark.parametrize("factor, fail", [(0.6, True), (0.9, False)])
def test_separated_regression_fails_only_beyond_the_bound(factor, fail):
    change = [value * factor for value in PARENT_RPS]
    result = ab.verdict(PARENT_RPS, change, "higher", 0.25)
    assert result["verdict"] == "worse"
    assert result["fail"] == fail


def test_wide_spread_is_unresolved():
    parent = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    change = [value * 0.9 for value in parent]
    result = ab.verdict(parent, change, "higher", 0.25)
    assert result["wins"]["parent"] == 10
    assert result["verdict"] == "unresolved"
    assert not result["fail"]


def test_wide_spread_resolved_only_when_every_change_run_is_better():
    parent = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    better = [value + 200.0 for value in parent]
    assert ab.verdict(parent, better, "higher", 0.25)["verdict"] == "better"
    worse = [value - 100.0 for value in parent]
    assert ab.verdict(parent, worse, "higher", 0.25)["verdict"] == "unresolved"


def test_ties_count_for_neither_side():
    change = list(PARENT_RPS)
    change[0] += 5.0
    change[1] -= 5.0
    result = ab.verdict(PARENT_RPS, change, "higher", 0.25)
    assert result["wins"] == {"parent": 1, "change": 1}
    assert result["verdict"] == "within noise"
    # Nine wins and one tie still reach 0.9 of ten pairs.
    nine = [value * 1.2 for value in PARENT_RPS[:9]] + PARENT_RPS[9:]
    result = ab.verdict(PARENT_RPS, nine, "higher", 0.25)
    assert result["wins"] == {"parent": 0, "change": 9}
    assert result["verdict"] == "better"


def test_small_gap_is_within_noise():
    change = [value + 0.01 for value in PARENT_RPS]
    result = ab.verdict(PARENT_RPS, change, "higher", 0.25)
    assert result["wins"]["change"] == 10
    assert result["verdict"] == "within noise"


@pytest.mark.parametrize("factor, expected", [(0.8, "better"), (1.5, "worse")])
def test_lower_is_better_mirrors_higher(factor, expected):
    latency = [10.0 / value for value in PARENT_RPS]
    lower = ab.verdict(latency, [value * factor for value in latency], "lower", 0.25)
    higher = ab.verdict(
        [-value for value in latency], [-value * factor for value in latency], "higher", 0.25
    )
    assert lower["verdict"] == higher["verdict"] == expected
    assert lower["wins"] == higher["wins"]
    assert lower["gap"] == pytest.approx(higher["gap"])
    assert lower["fail"] == higher["fail"] == (expected == "worse")
    # Quartiles are reported in the metric's own units, in ascending order.
    q1, median, q3 = lower["parent"]
    assert q1 <= median <= q3 and median == pytest.approx(10.0 / 100.05, rel=1e-3)


def test_unknown_direction_rejected():
    with pytest.raises(ValueError):
        ab.verdict([1.0], [1.0], "sideways", 0.25)


def _run(rps: float, failed: int = 0) -> dict:
    values = {
        "throughput_rps": rps,
        "latency_p50_ms": 1000.0 / rps,
        "verified_ratio": 1.0 - failed / 1000,
        "setup_s": 1.0,
        "peak_rss_mb": 200.0,
    }
    return {
        "correct": failed == 0,
        "attempted": 1000,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": ""} for name, value in values.items()},
    }


def _drive(
    monkeypatch, tmp_path, parent_run, change_run, pairs: int = 10, extra: tuple = ()
) -> tuple[int, list]:
    """Run ``ab.main`` with synthetic runs; returns its status and the run order."""
    parent = tmp_path / "parent"
    order = []

    def fake_run(tree, workload, seed, seconds):
        side = "parent" if tree == parent else "change"
        order.append((workload, side))
        index = sum(1 for w, s in order if w == workload and s == side) - 1
        return (parent_run if side == "parent" else change_run)(index)

    monkeypatch.setattr(ab, "_git", lambda *args: "0" * 40)
    monkeypatch.setattr(ab, "parent_tree", lambda commit: contextlib.nullcontext(parent))
    monkeypatch.setattr(ab, "run_tree", fake_run)
    argv = ["--against", "HEAD", "--pairs", str(pairs), "--seconds", "1", *extra]
    return ab.main(argv), order


def test_main_passes_an_unchanged_tree_and_alternates_order(monkeypatch, tmp_path, capsys):
    status, order = _drive(
        monkeypatch, tmp_path, lambda i: _run(PARENT_RPS[i]), lambda i: _run(PARENT_RPS[-1 - i])
    )
    assert status == 0
    out = capsys.readouterr().out
    assert "ab: ok" in out and "operations failed/attempted: 0/10000" in out
    assert {workload for workload, _ in order} == {"bulk_mixed", "http_mixed"}
    firsts = [side for _, side in order[::2]]
    assert firsts[:4] == ["parent", "change", "parent", "change"]


def test_main_exits_1_on_a_regression_beyond_the_bound(monkeypatch, tmp_path, capsys):
    status, _ = _drive(
        monkeypatch, tmp_path, lambda i: _run(PARENT_RPS[i]), lambda i: _run(PARENT_RPS[i] / 2)
    )
    assert status == 1
    out = capsys.readouterr().out
    assert "FAIL: beyond bound 0.25" in out and "ab: FAIL" in out


def test_main_exits_1_on_a_higher_failed_share(monkeypatch, tmp_path, capsys):
    status, _ = _drive(
        monkeypatch,
        tmp_path,
        lambda i: _run(PARENT_RPS[i]),
        lambda i: _run(PARENT_RPS[i], failed=1 if i == 3 else 0),
    )
    assert status == 1
    assert "fails a larger share of operations" in capsys.readouterr().out


def test_a_run_without_a_result_counts_as_a_failed_operation():
    runs = {"parent": [_run(100.0)] * 3, "change": [_run(100.0), None, _run(100.0)]}
    lines, ok = ab.compare(runs, METRICS)
    assert not ok
    assert "  change operations failed/attempted: 1/2001" in lines


def test_workload_accepts_ungated_perfbench_workloads(monkeypatch, tmp_path, capsys):
    status, order = _drive(
        monkeypatch,
        tmp_path,
        lambda i: _run(PARENT_RPS[i]),
        lambda i: _run(PARENT_RPS[i]),
        pairs=2,
        extra=("--workload", "select_fresh", "bulk_mixed"),
    )
    assert status == 0
    assert [workload for workload, _ in order] == ["select_fresh"] * 4 + ["bulk_mixed"] * 4
    assert "select_fresh: 2 pairs" in capsys.readouterr().out


def test_workload_choices_are_the_perfbench_table(capsys):
    names = ab.workload_names()  # puts the repository root on sys.path
    from perfbench.workloads import WORKLOADS

    assert names == list(WORKLOADS)
    assert "select_fresh" in WORKLOADS
    with pytest.raises(SystemExit):
        ab.main(["--against", "HEAD", "--workload", "no_such_workload"])
    assert "invalid choice" in capsys.readouterr().err
