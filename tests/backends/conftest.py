"""Fixtures shared by the kernel-backend tests."""

from __future__ import annotations

import importlib.util
import sys
import types

import pytest

from repro.backends import numpy_backend

HAVE_NUMBA = importlib.util.find_spec("numba") is not None


@pytest.fixture(scope="module")
def reference():
    """The numpy reference backend module."""
    return numpy_backend


@pytest.fixture(scope="module")
def compiled():
    """A fresh ``numba_backend`` module that runs without the ``[compiled]`` extra.

    Under real numba when it imports; otherwise under a stub ``numba`` whose
    ``njit`` is the identity decorator, so the loop bodies run as plain
    Python.  The module is executed from its spec without being registered,
    and the stub leaves ``sys.modules`` when the fixture ends.
    """
    with pytest.MonkeyPatch.context() as patch:
        if not HAVE_NUMBA:
            stub = types.ModuleType("numba")
            stub.njit = lambda *args, **kwargs: (lambda function: function)
            patch.setitem(sys.modules, "numba", stub)
        spec = importlib.util.find_spec("repro.backends.numba_backend")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module
