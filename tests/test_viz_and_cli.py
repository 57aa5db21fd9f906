"""Tests for the ASCII visualisation helpers and the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.viz.ascii import ascii_compare, ascii_plot


class TestAsciiPlot:
    def test_basic_dimensions(self):
        x = np.linspace(0, 1, 50)
        text = ascii_plot(x, np.sin(2 * np.pi * x), width=40, height=10, name="sine")
        lines = text.splitlines()
        # header + height rows + axis + x range + legend
        assert len(lines) == 1 + 10 + 1 + 1 + 1
        assert all(len(line) <= 42 for line in lines[1:11])
        assert "sine" in lines[-1]

    def test_contains_markers(self):
        x = np.linspace(0, 1, 20)
        text = ascii_plot(x, x, width=30, height=8)
        assert "*" in text

    def test_constant_series_handled(self):
        x = np.linspace(0, 1, 10)
        text = ascii_plot(x, np.ones(10))
        assert "1" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            ascii_plot(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            ascii_plot(np.ones(3), np.ones(3), width=4)

    def test_compare_multiple_series(self):
        x = np.linspace(0, 1, 30)
        text = ascii_compare(
            {"up": (x, x), "down": (x, 1 - x)}, width=40, height=8,
            x_label="phase", y_label="expression",
        )
        assert "up" in text and "down" in text
        assert "*" in text and "o" in text

    def test_compare_requires_series(self):
        with pytest.raises(ValueError):
            ascii_compare({})


class TestCLI:
    def test_figure2_command_runs(self, capsys):
        exit_code = main(["figure2", "--cells", "1500", "--seed", "1"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "deconv NRMSE" in captured.out
        assert "x1 deconvolved" in captured.out

    def test_figure2_with_plot(self, capsys):
        exit_code = main(["figure2", "--cells", "1200", "--seed", "2", "--plot"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "single cell" in captured.out

    def test_figure5_writes_csv(self, tmp_path, capsys):
        output = tmp_path / "ftsz.csv"
        exit_code = main(["figure5", "--cells", "1500", "--seed", "3", "--output", str(output)])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert output.exists()
        assert "deconvolved ftsZ" in captured.out

    def test_sensitivity_command(self, capsys):
        exit_code = main(["sensitivity", "--cells", "1200", "--seed", "4"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "assumed mu_sst" in captured.out

    def test_figure3_command_runs(self, capsys):
        exit_code = main(["figure3", "--cells", "1200", "--realisations", "1", "--seed", "5"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "mean NRMSE" in captured.out
        assert "noise realisation" in captured.out

    def test_ablations_volume_study(self, capsys):
        exit_code = main(["ablations", "--study", "volume", "--cells", "800", "--seed", "6"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "volume model" in captured.out
        assert "smooth" in captured.out

    def test_ablations_lambda_study(self, capsys):
        exit_code = main(["ablations", "--study", "lambda", "--cells", "800", "--seed", "7"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "smoothing" in captured.out
        assert "gcv" in captured.out and "kfold" in captured.out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure9"])


class TestServeBenchCLI:
    def test_serve_bench_command_runs_and_verifies(self, capsys):
        exit_code = main([
            "serve-bench", "--requests", "12", "--cells", "600", "--grids", "1",
            "--verbose",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "coalescing factor" in captured.out
        assert "p95 latency ms" in captured.out
        assert "session 'default'" in captured.out
        assert "ok: every scheduler response matches its one-shot fit to 1e-10" in captured.out

    def test_serve_bench_hotkey_scenario_without_faults_passes_its_slo(self, capsys):
        exit_code = main([
            "serve-bench", "--requests", "10", "--cells", "600", "--grids", "1",
            "--scenario", "hotkey",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "scenario hotkey" in captured.out
        assert "injected faults" not in captured.out
        assert "SLO pass" in captured.out
        assert "ok: every request terminated" in captured.out

    def test_serve_bench_scenario_with_faults_terminates_and_verifies(self, capsys):
        exit_code = main([
            "serve-bench", "--requests", "10", "--cells", "600", "--grids", "1",
            "--scenario", "hotkey", "--faults", "--verbose",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "scenario hotkey" in captured.out
        assert "injected faults" in captured.out
        assert "SLO pass" in captured.out
        assert "ok: every request terminated" in captured.out
