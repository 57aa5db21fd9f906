"""Shared configuration for the benchmark harness.

Every benchmark runs one full experiment per measurement round (the
experiments are Monte-Carlo pipelines, not micro-kernels), so rounds are kept
small via ``benchmark.pedantic``.  Each benchmark also prints the series or
table corresponding to the paper figure it regenerates, so running, from
the repository root,

    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only -s

reproduces the paper's evaluation outputs alongside the timing numbers.
The files are named ``bench_*.py``; ``pyproject.toml`` lists that pattern
in ``python_files``, and ``testpaths`` keeps them out of a plain
``pytest`` run.
"""

import numpy as np
import pytest


@pytest.fixture(autouse=True)
def _fixed_numpy_print_options():
    """Stable, compact printing of the reported series."""
    with np.printoptions(precision=3, suppress=True):
        yield
