"""Kernel-backend function table, chosen once at import.

:mod:`~repro.backends.numpy_backend` (the vectorised reference, the default)
and :mod:`~repro.backends.numba_backend` (``@njit`` loop nests, optional
``[compiled]`` extra) define the same seven hot-loop kernels plus ``name``.
``REPRO_BACKEND`` is read once, here, and is the only selection: ``numba``
without numba installed, or an unknown name, logs one ``repro.backends``
warning and selects numpy.  Call sites use
``backends.active_backend().<kernel>(...)``.
"""

from __future__ import annotations

import logging
import os
from types import ModuleType

from repro import config
from repro.backends import numpy_backend

__all__ = ["active_backend", "requested_backend"]

_logger = logging.getLogger("repro.backends")

_requested: str = os.environ.get(config.BACKEND_ENV_VAR, "numpy")
_active: ModuleType = numpy_backend
if _requested == "numba":
    try:
        from repro.backends import numba_backend

        _active = numba_backend
    except ImportError as error:
        _logger.warning(
            "%s='numba' but numba is unavailable (%s); using 'numpy' "
            "(install the [compiled] extra)", config.BACKEND_ENV_VAR, error,
        )
elif _requested != "numpy":
    _logger.warning(
        "%s=%r does not name a kernel backend (numpy, numba); using 'numpy'",
        config.BACKEND_ENV_VAR, _requested,
    )


def requested_backend() -> str:
    """Backend name requested at import (``REPRO_BACKEND``, default ``numpy``)."""
    return _requested


def active_backend() -> ModuleType:
    """The selected backend module; its ``name`` is ``numpy`` or ``numba``."""
    return _active
