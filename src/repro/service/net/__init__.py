"""Network front end of the fit service: protocol, server, client.

The edge layer exposing :class:`~repro.service.scheduler.MicroBatchScheduler`
over real sockets:

* :mod:`~repro.service.net.protocol` — the versioned, typed JSON wire
  schema (fit/result/error frames, taxonomy mapping);
* :mod:`~repro.service.net.server` — the asyncio HTTP server with ops
  routes;
* :mod:`~repro.service.net.client` — the blocking HTTP client for benches,
  tests and scripts.
"""

from repro.service.net.client import FitHTTPClient
from repro.service.net.protocol import (
    FRAME_KINDS,
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
    Frame,
    ProtocolError,
    RemoteError,
    VersionMismatch,
    WireError,
    WireFit,
    WireResult,
    decode_frame,
    error_to_frame,
    frame_to_error,
)
from repro.service.net.server import FitServer, ServerHandle, serve_in_thread

__all__ = [
    "FRAME_KINDS",
    "PROTOCOL_VERSION",
    "SUPPORTED_VERSIONS",
    "FitHTTPClient",
    "FitServer",
    "Frame",
    "ProtocolError",
    "RemoteError",
    "ServerHandle",
    "VersionMismatch",
    "WireError",
    "WireFit",
    "WireResult",
    "decode_frame",
    "error_to_frame",
    "frame_to_error",
    "serve_in_thread",
]
