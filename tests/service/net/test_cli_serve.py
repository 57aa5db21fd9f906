"""CLI tests of the network-edge commands (``serve``, ``serve-bench --http``).

``serve-bench --http`` is the acceptance gate of the network layer: the
seeded workload travels over real sockets through concurrent HTTP clients
and every wire response must match its one-shot fit to 1e-10 with exact
lambda agreement, while the ops routes answer live data under load.
"""

import pytest

from repro.cli import main


class TestServeBenchHTTP:
    def test_http_bench_passes_equivalence_gate(self, capsys):
        exit_code = main([
            "serve-bench", "--http", "--requests", "12", "--cells", "600",
            "--grids", "1", "--http-clients", "3",
            "--verbose",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Serving on 127.0.0.1:" in captured.out
        assert "max |coef gap|" in captured.out
        assert "/healthz during load" in captured.out
        assert "'status': 'ok'" in captured.out
        assert "ok: every wire response matches its one-shot fit to 1e-10" in captured.out

    def test_http_bench_leaves_no_threads(self, capsys):
        import threading

        before = set(threading.enumerate())
        assert main([
            "serve-bench", "--http", "--requests", "6", "--cells", "600",
            "--grids", "1", "--http-clients", "2",
        ]) == 0
        capsys.readouterr()
        leaked = [
            thread.name
            for thread in threading.enumerate()
            if thread not in before and thread.is_alive() and thread.name.startswith("repro-")
        ]
        assert not leaked, f"CLI bench leaked threads: {leaked}"


class TestServeParser:
    def test_serve_subcommand_is_registered(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(["serve", "--port", "0", "--cells", "700"])
        assert args.command == "serve"
        assert args.port == 0
        assert args.cells == 700
        assert args.host == "127.0.0.1"

    def test_http_flags_default_off(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(["serve-bench"])
        assert args.http is False
        assert args.http_clients == 4

    def test_unknown_serve_flag_rejected(self):
        with pytest.raises(SystemExit):
            main(["serve", "--no-such-flag"])
