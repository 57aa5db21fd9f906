"""Ctrl-C on ``repro serve`` says it is shutting down and exits 0.

``asyncio.run`` turns SIGINT into a cancel of the server task and raises
``KeyboardInterrupt`` only when that task ends cancelled, so the serve
coroutine must let the cancellation propagate.
"""

import os
import queue
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])
STARTUP_SECONDS = 120.0
SHUTDOWN_SECONDS = 60.0

# A job started in the background by a non-interactive shell ignores SIGINT,
# and Python then installs no KeyboardInterrupt handler; the child restores
# the default handler, as in a terminal, whatever started the suite.
LAUNCH = (
    "import signal, sys\n"
    "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
    "from repro.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


def _drain(stream, lines: queue.Queue) -> None:
    for line in stream:
        lines.put(line)
    lines.put(None)


def test_ctrl_c_prints_shutting_down_and_exits_zero():
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    command = [
        sys.executable, "-u", "-c", LAUNCH,
        "serve", "--port", "0", "--cells", "600", "--grids", "1",
    ]
    with subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env
    ) as process:
        # A reader thread, so a server that never prints its routes fails the
        # test at the deadline instead of blocking the suite.
        lines: queue.Queue = queue.Queue()
        reader = threading.Thread(target=_drain, args=(process.stdout, lines), daemon=True)
        reader.start()
        output = []
        try:
            deadline = time.monotonic() + STARTUP_SECONDS
            while not (output and output[-1].startswith("routes:")):
                remaining = deadline - time.monotonic()
                try:
                    line = lines.get(timeout=max(remaining, 0.0))
                except queue.Empty:
                    pytest.fail("no routes: line in time:\n" + "".join(output))
                assert line is not None, "server exited early:\n" + "".join(output)
                output.append(line)
            process.send_signal(signal.SIGINT)
            process.wait(timeout=SHUTDOWN_SECONDS)
            output.extend(iter(lambda: lines.get(timeout=SHUTDOWN_SECONDS), None))
            assert process.returncode == 0, "".join(output)
            assert "shutting down" in "".join(output)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            reader.join(timeout=SHUTDOWN_SECONDS)
