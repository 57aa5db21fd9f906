"""Smoke test for the solve-path benchmark harness (tier-1 wired).

Runs :func:`repro.benchmarks.solvepath.run_solvepath_benchmark` at smoke
sizes so the per-stage timing harness (and the JSON baseline machinery behind
``BENCH_solvepath.json``) is exercised on every tier-1 run without the cost
of the full-size benchmark.
"""

import copy
import json
import pathlib

import pytest

from repro.benchmarks.solvepath import (
    SMOKE_CONFIG,
    compare_reports,
    format_report,
    main,
    run_solvepath_benchmark,
    write_baseline,
)

EXPECTED_STAGES = {
    "kernel_build",
    "problem_assembly_cold",
    "problem_assembly_warm",
    "qp_solve",
    "qp_solve_warm",
    "qp_solve_batch",
    "lambda_gcv",
    "lambda_kfold",
    "bootstrap",
    "fit_many_gcv",
    "fit_many_kfold",
    "session_multi_grid",
    "fit_stream",
    "service_throughput",
    "service_slo",
}


@pytest.fixture(scope="module")
def smoke_report():
    return run_solvepath_benchmark(**SMOKE_CONFIG)


def test_smoke_report_has_all_stages(smoke_report):
    assert set(smoke_report["stages_seconds"]) == EXPECTED_STAGES
    assert all(seconds > 0.0 for seconds in smoke_report["stages_seconds"].values())


def test_backend_section_shape(smoke_report):
    """The report records the active and requested kernel backend."""
    backend = smoke_report["backend"]
    assert set(backend) == {"active", "requested"}
    assert backend["active"] in {"numpy", "numba"}
    text = format_report(smoke_report)
    assert "backend: active" in text
    assert f"[{backend['active']}]" in text


def test_service_slo_section_shape(smoke_report):
    slo = smoke_report["service_slo"]
    assert slo["scenario"] == "hotkey"
    assert slo["requests"] == SMOKE_CONFIG["num_service"]
    assert 0.0 <= slo["shed_rate"] <= 1.0
    assert 0.0 <= slo["deadline_miss_rate"] <= 1.0
    assert isinstance(slo["slo_passed"], bool)


def test_smoke_config_recorded(smoke_report):
    assert smoke_report["config"]["num_cells"] == SMOKE_CONFIG["num_cells"]
    # Smoke sizes are not the default sizes, so no seed comparison is claimed.
    assert smoke_report["seed_baseline_seconds"] is None


def test_warm_solve_not_slower_than_cold(smoke_report):
    stages = smoke_report["stages_seconds"]
    assert stages["qp_solve_warm"] <= stages["problem_assembly_cold"]


def test_baseline_round_trips_as_json(smoke_report, tmp_path):
    path = tmp_path / "BENCH_solvepath.json"
    write_baseline(smoke_report, str(path))
    loaded = json.loads(path.read_text())
    assert loaded["benchmark"] == "solvepath"
    assert set(loaded["stages_seconds"]) == EXPECTED_STAGES


def test_report_formats(smoke_report):
    text = format_report(smoke_report)
    assert "solvepath benchmark" in text
    assert "qp_solve_warm" in text
    assert "fit_many_kfold" in text


class TestCompareReports:
    """Baseline comparisons always carry the per-stage diff table.

    Every assertion on the ``ok`` flag passes the formatted ``table`` as the
    assertion message, so a failing comparison prints the same readable
    per-stage diff the CI bench gate prints instead of a bare boolean.
    """

    def test_identical_reports_pass(self, smoke_report):
        ok, table = compare_reports(smoke_report, smoke_report, tolerance=3.0)
        assert ok, f"unexpected regression in identical reports:\n{table}"
        assert "REGRESSION" not in table

    def test_regression_detected_with_readable_diff(self, smoke_report):
        baseline = copy.deepcopy(smoke_report)
        baseline["stages_seconds"]["qp_solve"] /= 10.0
        ok, table = compare_reports(smoke_report, baseline, tolerance=3.0, min_seconds=0.0)
        assert not ok, f"regression not detected:\n{table}"
        regression_lines = [line for line in table.splitlines() if "REGRESSION" in line]
        assert len(regression_lines) == 1, table
        assert regression_lines[0].startswith("qp_solve"), table

    def test_floor_shields_microsecond_stages(self, smoke_report):
        """A micro-stage over the ratio but under the absolute floor passes."""
        baseline = copy.deepcopy(smoke_report)
        baseline["stages_seconds"]["qp_solve"] = 1e-9
        ok, table = compare_reports(smoke_report, baseline, tolerance=3.0, min_seconds=1.0)
        assert ok, f"floor did not shield the micro-stage:\n{table}"
        assert "ok (below floor)" in table, table

    def test_stage_missing_from_baseline_is_ignored(self, smoke_report):
        baseline = copy.deepcopy(smoke_report)
        del baseline["stages_seconds"]["fit_many_kfold"]
        ok, table = compare_reports(smoke_report, baseline, tolerance=3.0)
        assert ok, f"new stage tripped the gate:\n{table}"
        assert "missing in baseline (ignored)" in table, table

    def test_stage_missing_from_current_run_fails(self, smoke_report):
        """A stage silently dropping out of the benchmark is a regression."""
        baseline = copy.deepcopy(smoke_report)
        baseline["stages_seconds"]["retired_stage"] = 1.0
        ok, table = compare_reports(smoke_report, baseline, tolerance=3.0)
        assert not ok, f"dropped stage not flagged:\n{table}"
        assert "missing from current run" in table, table

    def test_config_mismatch_noted(self, smoke_report):
        baseline = copy.deepcopy(smoke_report)
        baseline["config"]["num_cells"] = 1
        ok, table = compare_reports(smoke_report, baseline, tolerance=3.0)
        assert ok, f"config mismatch failed the gate:\n{table}"
        assert "config differs" in table, table

    def test_tolerance_must_exceed_one(self, smoke_report):
        with pytest.raises(ValueError):
            compare_reports(smoke_report, smoke_report, tolerance=1.0)


def test_committed_baseline_covers_all_stages(smoke_report):
    """The committed baseline's stages all still exist in the harness.

    Runs the same comparison as the CI bench gate with an effectively
    infinite tolerance, so only coverage losses (a stage present in
    ``BENCH_solvepath.json`` but gone from the benchmark) fail — and the
    failure message is the gate's own per-stage diff table.
    """
    baseline_path = pathlib.Path(__file__).resolve().parent.parent / "BENCH_solvepath.json"
    baseline = json.loads(baseline_path.read_text())
    ok, table = compare_reports(smoke_report, baseline, tolerance=1e12)
    assert ok, f"stage coverage regressed vs the committed baseline:\n{table}"


def test_cli_compare_gate_round_trip(smoke_report, tmp_path, capsys):
    baseline_path = tmp_path / "baseline.json"
    write_baseline(smoke_report, str(baseline_path))
    code = main(["--smoke", "--compare", str(baseline_path), "--tolerance", "1000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "bench regression gate" in out
