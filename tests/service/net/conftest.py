"""Shared fixtures of the network-edge test layer.

Provides the ``live_server`` fixture every integration test drives: a real
:class:`~repro.service.net.server.FitServer` on an ephemeral loopback port,
backed by a scheduler over the small test kernels, with clean teardown and
a thread-leak check (no ``repro-*`` thread may survive a test).

A per-test hang watchdog backs up the CI ``pytest-timeout`` plugin when it
is not installed locally: a stuck socket test dumps tracebacks and kills
the process instead of wedging the whole suite.
"""

import faulthandler
import threading

import numpy as np
import pytest

from repro.core.deconvolver import Deconvolver
from repro.service import (
    MicroBatchScheduler,
    SessionPool,
    WorkloadSpec,
    build_workload,
)
from repro.service.net import serve_in_thread

#: Local watchdog budget per test (CI uses pytest-timeout instead).
LOCAL_TIMEOUT_S = 180.0


@pytest.fixture(autouse=True)
def _hang_guard(request):
    """Kill a wedged test with tracebacks when pytest-timeout is absent."""
    if request.config.pluginmanager.hasplugin("timeout"):
        yield
        return
    faulthandler.dump_traceback_later(LOCAL_TIMEOUT_S, exit=True)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.fixture(scope="package")
def net_kernels(paper_parameters, small_kernel):
    from repro.cellcycle.kernel import KernelBuilder

    builder = KernelBuilder(paper_parameters, num_cells=1200, phase_bins=30)
    second = builder.build(np.linspace(0.0, 120.0, 9), rng=5)
    return [small_kernel, second]


@pytest.fixture(scope="package")
def net_factory(paper_parameters, net_kernels):
    def build(_key):
        deconvolver = Deconvolver(parameters=paper_parameters, num_basis=8)
        session = deconvolver.session()
        for kernel in net_kernels:
            session.register_kernel(kernel)
        return deconvolver

    return build


@pytest.fixture()
def net_workload(net_kernels):
    return build_workload(
        net_kernels,
        WorkloadSpec(num_requests=18, repeat_ratio=0.2, selection_fraction=0.1, seed=23),
    )


@pytest.fixture()
def live_server(net_factory):
    """A running network edge on an ephemeral port, leak-checked.

    Yields the :class:`~repro.service.net.server.ServerHandle`; its
    ``scheduler`` attribute (via ``handle.server.scheduler``) is the live
    scheduler for telemetry assertions.  Teardown closes the server, shuts
    the scheduler down and asserts that no service/server thread leaked.
    """
    threads_before = set(threading.enumerate())
    scheduler = MicroBatchScheduler(
        SessionPool(net_factory), workers=2
    )
    handle = serve_in_thread(scheduler, submit_timeout_s=10.0)
    try:
        yield handle
    finally:
        handle.close()
        scheduler.shutdown()
    leaked = [
        thread.name
        for thread in threading.enumerate()
        if thread not in threads_before
        and thread.is_alive()
        and thread.name.startswith("repro-")
    ]
    assert not leaked, f"threads leaked past server teardown: {leaked}"
