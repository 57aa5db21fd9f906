"""Versioned, typed wire protocol of the fit service network edge.

Everything that crosses a socket is a JSON *frame*: an envelope carrying the
schema version (``v``), the frame ``kind``, an optional correlation ``id``
and a typed ``payload``.  The payload types are plain dataclasses
(:class:`WireFit`, :class:`WireResult`, :class:`WireError`) with explicit
``to_payload`` / ``from_payload`` converters, so the schema is written down
in exactly one place and both the server and the bundled client speak it
through the same code.  The
converters name every key by hand rather than going through
``dataclasses.asdict``, whose recursive deep copy costs more than the rest
of a request's encode on the HTTP path.

Design rules, each of which is property-tested:

* **Version negotiation** — every frame carries ``v``; decoding a frame
  whose version is not in :data:`SUPPORTED_VERSIONS` raises
  :class:`VersionMismatch` (an error frame / HTTP 400 on the wire).  The
  ``/healthz`` and ``/`` documents list the versions the server speaks.
* **Unknown-field tolerance** — decoders ignore unrecognised keys at both
  the envelope and the payload level, so a newer client can add fields
  without breaking an older server (and vice versa).
* **Exact float round-trips** — arrays travel as JSON number lists;
  ``json`` serialises Python floats via ``repr`` (shortest round-trip), so
  measurements in and coefficients out are *bit-exact* across the wire.
  The 1e-10 service equivalence gate therefore holds end to end.
* **Typed errors** — every failure maps onto the PR 6 service-error
  taxonomy via :func:`error_to_frame` / :func:`frame_to_error`: the frame
  carries a stable ``code``, the HTTP status the server answers with, the
  ``transient`` retry hint and enough detail to reconstruct the original
  exception class client-side.
"""

from __future__ import annotations

import json
import queue
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.service.errors import (
    DeadlineExceeded,
    IntakeOverflow,
    RequestShed,
    SchedulerCrashed,
    ServiceError,
)
from repro.service.scheduler import DEFAULT_CONFIG_KEY, FitRequest
from repro.utils.validation import check_lambda_grid

__all__ = [
    "FRAME_KINDS",
    "PROTOCOL_VERSION",
    "SUPPORTED_VERSIONS",
    "Frame",
    "ProtocolError",
    "RemoteError",
    "VersionMismatch",
    "WireError",
    "WireFit",
    "WireResult",
    "decode_frame",
    "error_to_frame",
    "frame_to_error",
]

#: Wire schema version this build speaks natively.
PROTOCOL_VERSION = 1

#: Schema versions the decoder accepts.
SUPPORTED_VERSIONS: frozenset[int] = frozenset({1})

#: Frame kinds defined by schema v1.  Unknown kinds are rejected (unlike
#: unknown *fields*, which are tolerated): a kind names behaviour, not data.
FRAME_KINDS: frozenset[str] = frozenset(
    {"fit", "batch_fit", "result", "batch_result", "error"}
)


class ProtocolError(ServiceError):
    """The peer sent bytes that do not decode into a valid frame.

    Maps to HTTP 400 / error code ``bad_request``; never transient (the
    same bytes will fail the same way).
    """


class VersionMismatch(ProtocolError):
    """The frame's schema version is not supported by this endpoint.

    Parameters
    ----------
    requested:
        The version the peer asked for.
    supported:
        The versions this endpoint speaks.
    """

    def __init__(self, requested: object, supported: Sequence[int] = ()) -> None:
        supported = sorted(supported) if supported else sorted(SUPPORTED_VERSIONS)
        super().__init__(
            f"unsupported protocol version {requested!r}; this endpoint speaks {supported}"
        )
        self.requested = requested
        self.supported = supported


class RemoteError(ServiceError):
    """A server-side failure with no more specific client-side class.

    Carries the wire ``code`` and HTTP status so callers can still branch on
    what the server reported even when the taxonomy does not name it.
    """

    def __init__(self, message: str, *, code: str = "internal", http_status: int = 500) -> None:
        super().__init__(message)
        self.code = code
        self.http_status = int(http_status)


# ----------------------------------------------------------------------
# Payload coercion helpers (shared by every from_payload)
# ----------------------------------------------------------------------


def _require(payload: dict, key: str, kind: str) -> object:
    if key not in payload:
        raise ProtocolError(f"{kind} frame is missing required field {key!r}")
    return payload[key]


def _float_list(value: object, name: str) -> list[float]:
    if not isinstance(value, (list, tuple)):
        raise ProtocolError(f"{name} must be a JSON array of numbers")
    out = []
    for entry in value:
        if isinstance(entry, bool) or not isinstance(entry, (int, float)):
            raise ProtocolError(f"{name} must contain only numbers")
        out.append(float(entry))
    return out


def _optional_number(value: object, name: str) -> float | None:
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"{name} must be a number or null")
    return float(value)


def _copy_list(value):
    """A fresh list for list values (payloads never alias their source)."""
    return list(value) if isinstance(value, list) else value


# ----------------------------------------------------------------------
# Payload types
# ----------------------------------------------------------------------


@dataclass
class WireFit:
    """One fit request as it travels over the wire (schema v1).

    Mirrors :class:`~repro.service.scheduler.FitRequest` with wire-safe
    types: arrays are float lists, the seed is restricted to an integer (or
    ``null`` for fresh entropy — such requests never hit the result cache),
    and ``config`` is a string shard key.  ``tag`` is an opaque client
    string echoed verbatim on the result frame (correlation / tracing);
    ``include_diagnostics`` asks the server to materialise and attach the
    fit diagnostics (misfit, roughness) to the response.
    """

    times: list[float]
    measurements: list[float]
    sigma: float | list[float] | None = None
    lam: float | None = None
    lambda_method: str = "gcv"
    lambda_grid: list[float] | None = None
    seed: int | None = 0
    config: str = DEFAULT_CONFIG_KEY
    priority: int = 0
    deadline_ms: float | None = None
    tag: str = ""
    include_diagnostics: bool = False

    def to_payload(self) -> dict:
        """Plain JSON-serialisable dict of this request."""
        return {
            "times": list(self.times),
            "measurements": list(self.measurements),
            "sigma": _copy_list(self.sigma),
            "lam": self.lam,
            "lambda_method": self.lambda_method,
            "lambda_grid": _copy_list(self.lambda_grid),
            "seed": self.seed,
            "config": self.config,
            "priority": self.priority,
            "deadline_ms": self.deadline_ms,
            "tag": self.tag,
            "include_diagnostics": self.include_diagnostics,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "WireFit":
        """Decode a payload dict, tolerating unknown fields.

        Raises
        ------
        ProtocolError
            On missing required fields or wire-type violations (the typed
            400 path of the HTTP edge).
        """
        if not isinstance(payload, dict):
            raise ProtocolError("fit payload must be a JSON object")
        times = _float_list(_require(payload, "times", "fit"), "times")
        measurements = _float_list(_require(payload, "measurements", "fit"), "measurements")
        if not times:
            raise ProtocolError("times must not be empty")
        if len(times) != len(measurements):
            raise ProtocolError(
                f"times ({len(times)}) and measurements ({len(measurements)}) "
                "must have the same length"
            )
        sigma = payload.get("sigma")
        if sigma is not None:
            if isinstance(sigma, (list, tuple)):
                sigma = _float_list(sigma, "sigma")
                if len(sigma) != len(times):
                    raise ProtocolError("per-point sigma must match the grid length")
            elif isinstance(sigma, bool) or not isinstance(sigma, (int, float)):
                raise ProtocolError("sigma must be a number, an array or null")
            else:
                sigma = float(sigma)
        lam = _optional_number(payload.get("lam"), "lam")
        lambda_grid = payload.get("lambda_grid")
        if lambda_grid is not None:
            lambda_grid = _float_list(lambda_grid, "lambda_grid")
            if lam is None:  # the grid steers selection only
                try:
                    check_lambda_grid(lambda_grid)
                except ValueError as exc:
                    raise ProtocolError(str(exc)) from None
        seed = payload.get("seed", 0)
        if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
            raise ProtocolError("seed must be an integer or null")
        lambda_method = payload.get("lambda_method", "gcv")
        if not isinstance(lambda_method, str):
            raise ProtocolError("lambda_method must be a string")
        config = payload.get("config", DEFAULT_CONFIG_KEY)
        if not isinstance(config, str):
            raise ProtocolError("config must be a string shard key")
        priority = payload.get("priority", 0)
        if isinstance(priority, bool) or not isinstance(priority, int):
            raise ProtocolError("priority must be an integer")
        tag = payload.get("tag", "")
        if not isinstance(tag, str):
            raise ProtocolError("tag must be a string")
        deadline_ms = _optional_number(payload.get("deadline_ms"), "deadline_ms")
        if deadline_ms is not None and not (math.isfinite(deadline_ms) and deadline_ms >= 0.0):
            # A 400, not a shed: retrying can never make this budget feasible.
            raise ProtocolError("deadline_ms must be a finite number >= 0 or null")
        include_diagnostics = payload.get("include_diagnostics", False)
        if not isinstance(include_diagnostics, bool):
            raise ProtocolError("include_diagnostics must be a boolean")
        return cls(
            times=times,
            measurements=measurements,
            sigma=sigma,
            lam=lam,
            lambda_method=lambda_method,
            lambda_grid=lambda_grid,
            seed=seed,
            config=config,
            priority=priority,
            deadline_ms=deadline_ms,
            tag=tag,
            include_diagnostics=include_diagnostics,
        )

    def to_request(self) -> FitRequest:
        """The scheduler-side :class:`FitRequest` this wire request names."""
        sigma: object = self.sigma
        if isinstance(sigma, list):
            sigma = np.asarray(sigma, dtype=float)
        return FitRequest(
            times=np.asarray(self.times, dtype=float),
            measurements=np.asarray(self.measurements, dtype=float),
            sigma=sigma,
            lam=self.lam,
            lambda_method=self.lambda_method,
            lambda_grid=(
                None if self.lambda_grid is None else np.asarray(self.lambda_grid, dtype=float)
            ),
            rng=self.seed,
            config=self.config,
            priority=self.priority,
            deadline_ms=self.deadline_ms,
        )

    @classmethod
    def from_request(cls, request: FitRequest, **overrides) -> "WireFit":
        """Encode a scheduler request for the wire (loadgen / bench bridge).

        Raises
        ------
        ProtocolError
            When the request's seed has no wire representation (only
            integers and ``None`` travel).
        """
        rng = request.rng
        if rng is not None and not isinstance(rng, (int, np.integer)):
            raise ProtocolError("only integer (or null) seeds are wire-encodable")
        sigma = request.sigma
        if sigma is not None and not np.isscalar(sigma):
            sigma = np.asarray(sigma, dtype=float).tolist()
        elif sigma is not None:
            sigma = float(sigma)
        if not isinstance(request.config, str):
            raise ProtocolError("only string config keys are wire-encodable")
        fields = dict(
            times=np.asarray(request.times, dtype=float).tolist(),
            measurements=np.asarray(request.measurements, dtype=float).tolist(),
            sigma=sigma,
            lam=None if request.lam is None else float(request.lam),
            lambda_method=request.lambda_method,
            lambda_grid=(
                None
                if request.lambda_grid is None
                else np.asarray(request.lambda_grid, dtype=float).tolist()
            ),
            seed=None if rng is None else int(rng),
            config=request.config,
            priority=int(request.priority),
            deadline_ms=(None if request.deadline_ms is None else float(request.deadline_ms)),
        )
        fields.update(overrides)
        return cls(**fields)


@dataclass
class WireResult:
    """One finished fit as it travels back over the wire (schema v1).

    ``coefficients`` and ``lam`` round-trip bit-exactly (JSON ``repr``
    floats), which is what the end-to-end 1e-10 equivalence gate compares.
    ``diagnostics`` is attached only when the request asked for it.
    ``solver_iterations`` counts the active-set iterations spent on the row
    and is 0 when the stacked KKT check of its batch verified it, so the
    same request can report different counts alone and in a batch.
    """

    coefficients: list[float]
    lam: float
    solver_converged: bool = True
    solver_iterations: int = 0
    mean_cycle_time: float = 150.0
    tag: str = ""
    diagnostics: dict | None = None

    def to_payload(self) -> dict:
        """Plain JSON-serialisable dict of this result."""
        return {
            "coefficients": list(self.coefficients),
            "lam": self.lam,
            "solver_converged": self.solver_converged,
            "solver_iterations": self.solver_iterations,
            "mean_cycle_time": self.mean_cycle_time,
            "tag": self.tag,
            "diagnostics": None if self.diagnostics is None else dict(self.diagnostics),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "WireResult":
        """Decode a payload dict, tolerating unknown fields."""
        if not isinstance(payload, dict):
            raise ProtocolError("result payload must be a JSON object")
        lam = _require(payload, "lam", "result")
        if isinstance(lam, bool) or not isinstance(lam, (int, float)):
            raise ProtocolError("lam must be a number")
        diagnostics = payload.get("diagnostics")
        if diagnostics is not None and not isinstance(diagnostics, dict):
            raise ProtocolError("diagnostics must be an object or null")
        tag = payload.get("tag", "")
        if not isinstance(tag, str):
            raise ProtocolError("tag must be a string")
        return cls(
            coefficients=_float_list(
                _require(payload, "coefficients", "result"), "coefficients"
            ),
            lam=float(lam),
            solver_converged=bool(payload.get("solver_converged", True)),
            solver_iterations=int(payload.get("solver_iterations", 0)),
            mean_cycle_time=float(payload.get("mean_cycle_time", 150.0)),
            tag=tag,
            diagnostics=diagnostics,
        )

    @classmethod
    def from_result(cls, result, *, tag: str = "", include_diagnostics: bool = False) -> "WireResult":
        """Encode a :class:`~repro.core.result.DeconvolutionResult`."""
        diagnostics = None
        if include_diagnostics:
            diagnostics = {
                "data_misfit": float(result.data_misfit),
                "roughness": float(result.roughness),
            }
        return cls(
            coefficients=np.asarray(result.coefficients, dtype=float).tolist(),
            lam=float(result.lam),
            solver_converged=bool(result.solver_converged),
            solver_iterations=int(result.solver_iterations),
            mean_cycle_time=float(result.mean_cycle_time),
            tag=tag,
            diagnostics=diagnostics,
        )

    @property
    def coefficients_array(self) -> np.ndarray:
        """The coefficients as a float array (client-side convenience)."""
        return np.asarray(self.coefficients, dtype=float)


@dataclass
class WireError:
    """Typed error frame mapping the service taxonomy onto the wire.

    Attributes
    ----------
    code:
        Stable machine-readable error code (see :func:`error_to_frame`).
    message:
        Human-readable description (``str(exc)`` server-side).
    http_status:
        The status the HTTP edge answers with for this error class.
    transient:
        The taxonomy's retry hint: ``True`` when retrying may succeed.
    details:
        Class-specific numeric context (e.g. the shed projection), enough
        for :func:`frame_to_error` to rebuild the original exception.
    """

    code: str
    message: str
    http_status: int = 500
    transient: bool = False
    details: dict = field(default_factory=dict)
    tag: str = ""

    def to_payload(self) -> dict:
        """Plain JSON-serialisable dict of this error."""
        return {
            "code": self.code,
            "message": self.message,
            "http_status": self.http_status,
            "transient": self.transient,
            "details": dict(self.details),
            "tag": self.tag,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "WireError":
        """Decode a payload dict, tolerating unknown fields."""
        if not isinstance(payload, dict):
            raise ProtocolError("error payload must be a JSON object")
        code = _require(payload, "code", "error")
        if not isinstance(code, str):
            raise ProtocolError("error code must be a string")
        details = payload.get("details", {})
        if not isinstance(details, dict):
            raise ProtocolError("error details must be an object")
        tag = payload.get("tag", "")
        if not isinstance(tag, str):
            raise ProtocolError("tag must be a string")
        return cls(
            code=code,
            message=str(payload.get("message", "")),
            http_status=int(payload.get("http_status", 500)),
            transient=bool(payload.get("transient", False)),
            details=details,
            tag=tag,
        )


# ----------------------------------------------------------------------
# Error taxonomy <-> wire mapping
# ----------------------------------------------------------------------


def error_to_frame(exc: BaseException, *, tag: str = "") -> WireError:
    """Map an exception onto its typed wire error frame.

    The match walks the taxonomy most-specific-first; anything outside the
    taxonomy becomes the generic ``internal`` / 500 frame (message
    preserved, class not).
    """
    transient = bool(getattr(exc, "transient", False))
    if isinstance(exc, VersionMismatch):
        return WireError(
            "version_mismatch",
            str(exc),
            http_status=400,
            transient=transient,
            details={"requested": repr(exc.requested), "supported": list(exc.supported)},
            tag=tag,
        )
    if isinstance(exc, ProtocolError):
        return WireError("bad_request", str(exc), http_status=400, transient=transient, tag=tag)
    if isinstance(exc, RequestShed):
        return WireError(
            "shed",
            str(exc),
            http_status=503,
            transient=True,
            details={
                "projected_wait_ms": exc.projected_wait_ms,
                "deadline_ms": exc.deadline_ms,
            },
            tag=tag,
        )
    if isinstance(exc, DeadlineExceeded):
        return WireError(
            "deadline_exceeded",
            str(exc),
            http_status=504,
            transient=transient,
            details={"waited_ms": exc.waited_ms, "deadline_ms": exc.deadline_ms},
            tag=tag,
        )
    if isinstance(exc, IntakeOverflow):
        return WireError(
            "intake_overflow",
            str(exc),
            http_status=429,
            transient=True,
            details={
                "accepted": len(exc.accepted),
                "rejected": len(exc.rejected),
            },
            tag=tag,
        )
    if isinstance(exc, SchedulerCrashed):
        return WireError("scheduler_crashed", str(exc), http_status=503, transient=transient, tag=tag)
    if isinstance(exc, queue.Full):
        # A plain intake timeout from single-request submit (the typed
        # IntakeOverflow subclass was matched above).
        return WireError("intake_overflow", str(exc) or "intake queue full", http_status=429, transient=True, tag=tag)
    if isinstance(exc, ServiceError):
        return WireError("service_error", str(exc), http_status=500, transient=transient, tag=tag)
    if isinstance(exc, (ValueError, TypeError, KeyError)):
        # Solver-level validation of a structurally well-formed but
        # semantically impossible request: the client's fault, not ours.
        return WireError("bad_request", str(exc), http_status=400, tag=tag)
    return WireError("internal", str(exc), http_status=500, transient=transient, tag=tag)


def frame_to_error(frame: WireError) -> Exception:
    """Rebuild the client-side exception a :class:`WireError` describes.

    The inverse of :func:`error_to_frame` up to the information that
    travels: taxonomy classes come back as the same class with the same
    message and ``transient`` flag; unknown codes come back as
    :class:`RemoteError` carrying the code and status verbatim.
    """
    details = frame.details
    error: Exception
    if frame.code == "shed":
        error = RequestShed(
            float(details.get("projected_wait_ms", 0.0)),
            float(details.get("deadline_ms", 0.0)),
        )
    elif frame.code == "deadline_exceeded":
        error = DeadlineExceeded(
            float(details.get("waited_ms", 0.0)), float(details.get("deadline_ms", 0.0))
        )
    elif frame.code == "intake_overflow":
        error = IntakeOverflow(
            [None] * int(details.get("accepted", 0)),
            [None] * int(details.get("rejected", 0)),
        )
    elif frame.code == "scheduler_crashed":
        error = SchedulerCrashed(frame.message)
    elif frame.code == "version_mismatch":
        supported = details.get("supported", sorted(SUPPORTED_VERSIONS))
        error = VersionMismatch(details.get("requested"), supported)
    elif frame.code == "bad_request":
        error = ProtocolError(frame.message)
    elif frame.code == "service_error":
        error = ServiceError(frame.message)
    else:
        error = RemoteError(frame.message, code=frame.code, http_status=frame.http_status)
    # The retry hint travels with the frame, not the class: stamp it on the
    # instance so client-side RetryPolicy predicates see what the server sent.
    error.transient = bool(frame.transient)
    return error


# ----------------------------------------------------------------------
# Frame envelope
# ----------------------------------------------------------------------


@dataclass
class Frame:
    """One decoded wire frame: envelope plus raw payload dict.

    ``payload`` stays a plain dict at this level; callers decode it with
    the payload type their route expects (``WireFit.from_payload`` etc.).
    """

    kind: str
    payload: dict = field(default_factory=dict)
    version: int = PROTOCOL_VERSION
    id: str | None = None

    def encode(self) -> str:
        """Serialise to the JSON text that travels on the wire."""
        envelope: dict = {"v": self.version, "kind": self.kind, "payload": self.payload}
        if self.id is not None:
            envelope["id"] = self.id
        return json.dumps(envelope, separators=(",", ":"))


def decode_frame(text: str | bytes) -> Frame:
    """Parse and validate one wire frame.

    Raises
    ------
    VersionMismatch
        When the envelope's ``v`` is not a supported schema version.
    ProtocolError
        On malformed JSON, a non-object envelope, a missing or unknown
        ``kind``, or a non-object payload.  Unknown envelope *fields* are
        tolerated by design.
    """
    try:
        envelope = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from None
    if not isinstance(envelope, dict):
        raise ProtocolError("frame must be a JSON object")
    version = envelope.get("v")
    if isinstance(version, bool) or not isinstance(version, int):
        raise ProtocolError("frame is missing the integer schema version field 'v'")
    if version not in SUPPORTED_VERSIONS:
        raise VersionMismatch(version)
    kind = envelope.get("kind")
    if not isinstance(kind, str) or kind not in FRAME_KINDS:
        raise ProtocolError(f"unknown frame kind {kind!r}")
    payload = envelope.get("payload", {})
    if not isinstance(payload, dict):
        raise ProtocolError("frame payload must be a JSON object")
    frame_id = envelope.get("id")
    if frame_id is not None and not isinstance(frame_id, str):
        raise ProtocolError("frame id must be a string")
    return Frame(kind=kind, payload=payload, version=version, id=frame_id)
