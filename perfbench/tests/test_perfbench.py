"""Smoke tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
Each run is shrunk to two short rounds and small probes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import harness, layers  # noqa: E402
from perfbench import run as driver  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def smoke(monkeypatch):
    """Two rounds (one traced, one not) and one-pass probes."""
    monkeypatch.setattr(driver, "ROUNDS", 2)
    monkeypatch.setattr(layers, "PROBE_PASSES", 2)
    monkeypatch.setattr(layers, "LOOP_PASSES", 1)
    monkeypatch.setattr(layers, "WARM_REPEATS", 1)


def _check_metrics(result: dict, expected: list[dict]) -> None:
    assert set(result["metrics"]) == {metric["name"] for metric in expected}
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert math.isfinite(reported["value"])


def test_benchmark_json_matches_the_workload_definitions():
    for workload in SPEC["workloads"]:
        assert workload["why"] == WORKLOADS[workload["name"]].why
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_end_to_end_metrics_are_emitted(smoke, name):
    result = driver.run(WORKLOADS[name], seed=3, seconds=0.4, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    _check_metrics(result, SPEC["end_to_end"])
    assert result["metrics"]["verified_ratio"]["value"] == 1.0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_per_layer_metrics_are_emitted(smoke, name):
    result = driver.run(WORKLOADS[name], seed=3, seconds=0.4, trace=True)
    assert result["correct"] and result["failed"] == 0
    _check_metrics(result, SPEC["per_layer"])
    trace = json.loads((driver.OUT_DIR / f"trace-{name}-seed3.json").read_text())
    assert {"name", "start", "end", "id", "parent", "key"} <= set(trace["spans"][0])
    assert trace["context"]["nproc"] >= 1


def test_perturbed_reference_shows_up_as_errors(smoke, monkeypatch):
    exact = harness.references

    def perturbed(workload, seed, indices):
        out = exact(workload, seed, indices)
        first = indices[0]
        lams, coefficients = out[first]
        out[first] = (lams, coefficients + 1e-6)
        return out

    monkeypatch.setattr(harness, "references", perturbed)
    result = driver.run(WORKLOADS["bulk_mixed"], seed=3, seconds=0.4, trace=False)
    assert not result["correct"]
    assert result["failed"] >= 320  # every response of the first pass, in each round
    assert result["metrics"]["verified_ratio"]["value"] < 1.0


def test_removed_api_fails_loudly(smoke, monkeypatch):
    from repro.service import MicroBatchScheduler

    monkeypatch.delattr(MicroBatchScheduler, "submit_many")
    result = driver.run(WORKLOADS["bulk_mixed"], seed=3, seconds=0.4, trace=False)
    assert not result["correct"]
    assert result["failed"] >= 1


def test_checkout_without_the_package_exits_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk_mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
