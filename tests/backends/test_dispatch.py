"""Import-time kernel-backend selection of ``repro.backends``.

``REPRO_BACKEND`` is read once, when the package is imported, so each
selection case runs in a fresh interpreter: unset selects numpy, an unknown
name or ``numba`` without numba installed (simulated with an import hook, so
the test works whether or not numba is present) logs one warning and selects
numpy, and ``repro backends`` prints the active and requested names.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
import types

from repro import backends, config
from repro.backends import numpy_backend

HAVE_NUMBA = importlib.util.find_spec("numba") is not None

KERNELS = (
    "smooth_volume_into",
    "uniform_bin_indices",
    "weighted_bincount",
    "smooth_rows",
    "weighted_dot",
    "partition_accepted",
    "batch_objectives",
)

# Prepended to a child interpreter's code: ``import numba`` raises ImportError.
BLOCK_NUMBA = (
    "import sys\n"
    "class BlockNumba:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name.split('.')[0] == 'numba':\n"
    "            raise ImportError('numba import blocked by test hook')\n"
    "sys.meta_path.insert(0, BlockNumba())\n"
)

SELECTION = (
    "import logging\n"
    "logging.basicConfig(level=logging.WARNING, format='%(name)s %(message)s')\n"
    "from repro import backends\n"
    "print(backends.requested_backend(), backends.active_backend().name)\n"
)


def run_python(*args, backend=None):
    """Run a fresh interpreter with ``REPRO_BACKEND`` set to ``backend`` (or unset)."""
    env = dict(os.environ)
    env.pop(config.BACKEND_ENV_VAR, None)
    if backend is not None:
        env[config.BACKEND_ENV_VAR] = backend
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=True
    )


def warnings_of(result):
    return [line for line in result.stderr.splitlines() if line.startswith("repro.backends")]


class TestSelectionPrecedence:
    def test_config_default_is_numpy(self):
        """With ``REPRO_BACKEND`` unset the numpy reference is selected, silently."""
        assert config.BACKEND_ENV_VAR == "REPRO_BACKEND"
        result = run_python("-c", SELECTION)
        assert result.stdout.split() == ["numpy", "numpy"]
        assert warnings_of(result) == []

    def test_import_time_selection_resolves(self):
        assert backends.requested_backend() == os.environ.get("REPRO_BACKEND", "numpy")
        active = backends.active_backend()
        assert isinstance(active, types.ModuleType)
        assert active.name in {"numpy", "numba"}
        for kernel in KERNELS:
            assert callable(getattr(active, kernel))

    def test_env_var_selects_backend_at_import(self):
        result = run_python("-c", SELECTION, backend="numpy")
        assert result.stdout.split() == ["numpy", "numpy"]
        assert warnings_of(result) == []

    def test_env_var_unknown_name_warns_and_uses_default(self):
        result = run_python("-c", SELECTION, backend="bogus")
        assert result.stdout.split() == ["bogus", "numpy"]
        (warning,) = warnings_of(result)
        assert "'bogus' does not name a kernel backend" in warning


class TestRegistry:
    def test_both_backends_registered(self, compiled):
        """Both backend modules define the same seven kernels plus ``name``."""
        assert numpy_backend.name == "numpy"
        assert compiled.name == "numba"
        for kernel in KERNELS:
            assert callable(getattr(numpy_backend, kernel))
            assert callable(getattr(compiled, kernel))

    def test_availability(self):
        """``REPRO_BACKEND=numba`` selects numba exactly when numba imports."""
        result = run_python("-c", SELECTION, backend="numba")
        assert result.stdout.split() == ["numba", "numba" if HAVE_NUMBA else "numpy"]
        assert len(warnings_of(result)) == (0 if HAVE_NUMBA else 1)


class TestFallback:
    def test_missing_numba_falls_back_to_numpy(self):
        result = run_python("-c", BLOCK_NUMBA + SELECTION, backend="numba")
        assert result.stdout.split() == ["numba", "numpy"]
        # Exactly one warning, logged at import.
        (warning,) = warnings_of(result)
        assert "numba is unavailable" in warning
        assert "numba import blocked by test hook" in warning

    def test_missing_numba_reported_unavailable(self):
        code = BLOCK_NUMBA + "from repro.cli import main\nraise SystemExit(main(['backends']))\n"
        result = run_python("-c", code, backend="numba")
        assert "active: numpy" in result.stdout
        assert "requested: numba" in result.stdout


class TestCli:
    def test_backends_subcommand_lists_registry(self):
        result = run_python("-m", "repro.cli", "backends")
        assert result.stdout.splitlines() == [
            "active: numpy",
            "requested: numpy (REPRO_BACKEND)",
        ]
