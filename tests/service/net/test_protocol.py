"""Property-based tests of the versioned wire protocol.

Every wire message type must round-trip encode→decode to an identical
value, tolerate unknown fields at both the envelope and payload level,
reject unsupported schema versions, and map the service error taxonomy
onto typed error frames and back.  Floats must survive the wire
*bit-exactly* — that is what makes the 1e-10 end-to-end gate meaningful.
"""

import json
import queue
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import FitRequest, InvalidRequest
from repro.service.errors import (
    DeadlineExceeded,
    IntakeOverflow,
    RequestShed,
    SchedulerCrashed,
    ServiceError,
)
from repro.service.net import (
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

# Finite, JSON-representable floats (NaN/inf are not valid JSON).
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
positive = st.floats(min_value=1e-12, max_value=1e12, allow_nan=False)
names = st.text(st.characters(codec="utf-8", exclude_categories=("Cs",)), max_size=30)


@st.composite
def wire_fits(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    grid = draw(st.lists(finite, min_size=n, max_size=n))
    sigma = draw(
        st.one_of(st.none(), positive, st.lists(positive, min_size=n, max_size=n))
    )
    return WireFit(
        times=grid,
        measurements=draw(st.lists(finite, min_size=n, max_size=n)),
        sigma=sigma,
        lam=draw(st.one_of(st.none(), positive)),
        lambda_method=draw(st.sampled_from(["gcv", "discrepancy", "grid"])),
        lambda_grid=draw(st.one_of(st.none(), st.lists(positive, min_size=1, max_size=5))),
        seed=draw(st.one_of(st.none(), st.integers(min_value=0, max_value=2**31))),
        config=draw(st.sampled_from(["default", "shard-a", "shard-b"])),
        priority=draw(st.integers(min_value=-10, max_value=10)),
        deadline_ms=draw(st.one_of(st.none(), positive)),
        tag=draw(names),
        include_diagnostics=draw(st.booleans()),
    )


@st.composite
def wire_results(draw):
    return WireResult(
        coefficients=draw(st.lists(finite, min_size=1, max_size=16)),
        lam=draw(positive),
        solver_converged=draw(st.booleans()),
        solver_iterations=draw(st.integers(min_value=0, max_value=10_000)),
        mean_cycle_time=draw(positive),
        tag=draw(names),
        diagnostics=draw(
            st.one_of(st.none(), st.dictionaries(st.sampled_from(["data_misfit", "roughness"]), finite))
        ),
    )


@st.composite
def wire_errors(draw):
    return WireError(
        code=draw(st.sampled_from(
            ["shed", "deadline_exceeded", "intake_overflow", "scheduler_crashed",
             "bad_request", "version_mismatch", "service_error", "internal", "custom_code"]
        )),
        message=draw(names),
        http_status=draw(st.sampled_from([400, 429, 500, 503, 504])),
        transient=draw(st.booleans()),
        details=draw(st.dictionaries(
            st.sampled_from(["projected_wait_ms", "deadline_ms", "waited_ms",
                             "accepted", "rejected", "requested"]),
            st.integers(min_value=0, max_value=1000),
        )),
        tag=draw(names),
    )


def roundtrip(kind, payload_obj, decode):
    """Encode a frame, decode it, and rebuild the typed payload."""
    frame = Frame(kind, payload_obj.to_payload(), id="x1")
    decoded = decode_frame(frame.encode())
    assert decoded.kind == kind
    assert decoded.version == PROTOCOL_VERSION
    assert decoded.id == "x1"
    return decode(decoded.payload)


class TestRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(wire=wire_fits())
    def test_fit_roundtrip_identity(self, wire):
        assert roundtrip("fit", wire, WireFit.from_payload) == wire

    @settings(max_examples=80, deadline=None)
    @given(wire=wire_results())
    def test_result_roundtrip_identity(self, wire):
        assert roundtrip("result", wire, WireResult.from_payload) == wire

    @settings(max_examples=60, deadline=None)
    @given(wire=wire_errors())
    def test_error_roundtrip_identity(self, wire):
        assert roundtrip("error", wire, WireError.from_payload) == wire

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(finite, min_size=1, max_size=32))
    def test_floats_survive_the_wire_bit_exactly(self, values):
        # The whole 1e-10 equivalence gate rests on this: JSON repr floats
        # round-trip to the very same bits, not merely "close".
        wire = WireResult(coefficients=values, lam=1.0)
        back = roundtrip("result", wire, WireResult.from_payload)
        assert all(
            struct.pack("<d", a) == struct.pack("<d", b)
            for a, b in zip(back.coefficients, values)
        )

    @settings(max_examples=40, deadline=None)
    @given(wire=wire_fits())
    def test_fit_request_bridge_roundtrip(self, wire):
        # WireFit -> FitRequest -> WireFit preserves every wire field.
        assert WireFit.from_request(
            wire.to_request(), tag=wire.tag, include_diagnostics=wire.include_diagnostics
        ) == wire


class TestUnknownFieldTolerance:
    @settings(max_examples=40, deadline=None)
    @given(
        wire=wire_fits(),
        extra_key=st.text(min_size=1, max_size=12).filter(
            lambda k: k not in WireFit.__dataclass_fields__
        ),
        extra_value=st.one_of(st.integers(), st.text(max_size=8), st.booleans()),
    )
    def test_unknown_payload_fields_are_ignored(self, wire, extra_key, extra_value):
        payload = wire.to_payload()
        payload[extra_key] = extra_value
        assert WireFit.from_payload(payload) == wire

    @settings(max_examples=40, deadline=None)
    @given(wire=wire_fits(), extra=st.integers())
    def test_unknown_envelope_fields_are_ignored(self, wire, extra):
        envelope = json.loads(Frame("fit", wire.to_payload()).encode())
        envelope["x_future_extension"] = extra
        decoded = decode_frame(json.dumps(envelope))
        assert WireFit.from_payload(decoded.payload) == wire


class TestVersionNegotiation:
    @settings(max_examples=60, deadline=None)
    @given(version=st.integers())
    def test_unsupported_versions_are_rejected(self, version):
        envelope = json.dumps({"v": version, "kind": "fit", "payload": {}})
        if version in SUPPORTED_VERSIONS:
            assert decode_frame(envelope).version == version
        else:
            with pytest.raises(VersionMismatch) as excinfo:
                decode_frame(envelope)
            assert excinfo.value.requested == version
            assert excinfo.value.supported == sorted(SUPPORTED_VERSIONS)

    @settings(max_examples=30, deadline=None)
    @given(version=st.one_of(st.none(), st.text(max_size=4), st.booleans(), finite))
    def test_non_integer_versions_are_protocol_errors(self, version):
        envelope = json.dumps({"v": version, "kind": "fit", "payload": {}})
        with pytest.raises(ProtocolError):
            decode_frame(envelope)

    @settings(max_examples=30, deadline=None)
    @given(kind=st.text(max_size=16).filter(lambda k: k not in FRAME_KINDS))
    def test_unknown_kinds_are_rejected(self, kind):
        envelope = json.dumps({"v": PROTOCOL_VERSION, "kind": kind, "payload": {}})
        with pytest.raises(ProtocolError):
            decode_frame(envelope)

    def test_malformed_json_is_a_protocol_error(self):
        for garbage in (b"", b"{", b"[1,2]", b'"text"', b"\xff\xfe"):
            with pytest.raises(ProtocolError):
                decode_frame(garbage)


class TestErrorTaxonomyMapping:
    TAXONOMY = [
        (RequestShed(12.5, 10.0), "shed", 503, True),
        (DeadlineExceeded(40.0, 25.0), "deadline_exceeded", 504, False),
        (IntakeOverflow([object()], [object(), object()]), "intake_overflow", 429, True),
        (SchedulerCrashed("batcher died"), "scheduler_crashed", 503, False),
        (queue.Full(), "intake_overflow", 429, True),
        (ProtocolError("bad bytes"), "bad_request", 400, False),
        (VersionMismatch(7), "version_mismatch", 400, False),
        (ServiceError("something typed"), "service_error", 500, False),
        (ValueError("sigma must be positive"), "bad_request", 400, False),
        (InvalidRequest("time grid past the population cap"), "bad_request", 400, False),
        (RuntimeError("boom"), "internal", 500, False),
    ]

    @pytest.mark.parametrize(
        "exc, code, status, transient",
        TAXONOMY,
        ids=[type(case[0]).__name__ + "-" + case[1] for case in TAXONOMY],
    )
    def test_error_to_frame_statuses(self, exc, code, status, transient):
        frame = error_to_frame(exc, tag="t-9")
        assert frame.code == code
        assert frame.http_status == status
        assert frame.transient is transient
        assert frame.tag == "t-9"

    @pytest.mark.parametrize(
        "exc",
        [case[0] for case in TAXONOMY],
        ids=[type(case[0]).__name__ for case in TAXONOMY],
    )
    def test_frame_to_error_reconstructs_taxonomy(self, exc):
        frame = error_to_frame(exc)
        rebuilt = frame_to_error(frame)
        if isinstance(exc, queue.Full) and not isinstance(exc, IntakeOverflow):
            assert isinstance(rebuilt, IntakeOverflow)  # plain Full upgrades
        elif isinstance(exc, ServiceError):
            assert type(rebuilt) is type(exc)
        else:
            # Outside the taxonomy only the code/status survive, by design.
            assert isinstance(rebuilt, (ProtocolError, RemoteError))
        # The frame's retry hint is authoritative for the rebuilt instance.
        assert bool(getattr(rebuilt, "transient", False)) == frame.transient

    def test_overflow_split_counts_survive(self):
        exc = IntakeOverflow([object()] * 3, [object()] * 2)
        rebuilt = frame_to_error(error_to_frame(exc))
        assert isinstance(rebuilt, IntakeOverflow)
        assert len(rebuilt.accepted) == 3
        assert len(rebuilt.rejected) == 2

    def test_shed_projection_survives(self):
        rebuilt = frame_to_error(error_to_frame(RequestShed(123.5, 50.0)))
        assert isinstance(rebuilt, RequestShed)
        assert rebuilt.projected_wait_ms == 123.5
        assert rebuilt.deadline_ms == 50.0

    def test_version_mismatch_supported_versions_survive(self):
        rebuilt = frame_to_error(error_to_frame(VersionMismatch(42)))
        assert isinstance(rebuilt, VersionMismatch)
        assert rebuilt.supported == sorted(SUPPORTED_VERSIONS)

    def test_unknown_codes_become_remote_errors(self):
        frame = WireError(code="weird_new_code", message="hm", http_status=418)
        rebuilt = frame_to_error(frame)
        assert isinstance(rebuilt, RemoteError)
        assert rebuilt.code == "weird_new_code"
        assert rebuilt.http_status == 418


class TestFitValidation:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ProtocolError):
            WireFit.from_payload({"times": [1.0, 2.0], "measurements": [1.0]})

    def test_missing_required_fields_rejected(self):
        with pytest.raises(ProtocolError):
            WireFit.from_payload({"times": [1.0]})
        with pytest.raises(ProtocolError):
            WireFit.from_payload({"measurements": [1.0]})

    def test_non_numeric_arrays_rejected(self):
        with pytest.raises(ProtocolError):
            WireFit.from_payload({"times": [1.0, "x"], "measurements": [1.0, 2.0]})
        with pytest.raises(ProtocolError):
            WireFit.from_payload({"times": [1.0, True], "measurements": [1.0, 2.0]})

    def test_non_integer_seed_rejected(self):
        with pytest.raises(ProtocolError):
            WireFit.from_payload(
                {"times": [1.0], "measurements": [1.0], "seed": 1.5}
            )

    def test_request_bridge_rejects_unencodable_seeds(self):
        request = FitRequest(
            times=np.array([1.0]), measurements=np.array([1.0]),
            rng=np.random.default_rng(0),
        )
        with pytest.raises(ProtocolError):
            WireFit.from_request(request)

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None, [], {}])
    def test_include_diagnostics_must_be_a_json_boolean(self, value):
        # bool("false") is True: coercing would turn diagnostics *on*.
        with pytest.raises(ProtocolError):
            WireFit.from_payload(
                {"times": [1.0], "measurements": [1.0], "include_diagnostics": value}
            )

    @pytest.mark.parametrize("value", [False, True])
    def test_include_diagnostics_booleans_travel(self, value):
        wire = WireFit.from_payload(
            {"times": [1.0], "measurements": [1.0], "include_diagnostics": value}
        )
        assert wire.include_diagnostics is value
        assert WireFit.from_payload({"times": [1.0], "measurements": [1.0]}).include_diagnostics is False

    @pytest.mark.parametrize(
        "text", ['-1.0', '-1e-9', 'Infinity', '-Infinity', 'NaN'],
    )
    def test_impossible_deadlines_are_bad_requests(self, text):
        # Python's json decoder accepts the non-standard Infinity/NaN
        # literals, so they can reach from_payload off the wire.
        payload = decode_frame(
            '{"v": 1, "kind": "fit", "payload": {"times": [1.0], '
            f'"measurements": [1.0], "deadline_ms": {text}}}}}'
        ).payload
        with pytest.raises(ProtocolError) as excinfo:
            WireFit.from_payload(payload)
        assert error_to_frame(excinfo.value).http_status == 400
        assert not excinfo.value.transient

    def test_zero_deadline_is_still_accepted(self):
        wire = WireFit.from_payload({"times": [1.0], "measurements": [1.0], "deadline_ms": 0})
        assert wire.deadline_ms == 0.0


class TestExplicitPayloads:
    """``to_payload`` builds fresh dicts and lists, never views of the object."""

    @settings(max_examples=40, deadline=None)
    @given(wire=wire_fits())
    def test_fit_payload_keys_are_the_schema(self, wire):
        payload = wire.to_payload()
        assert list(payload) == list(WireFit.__dataclass_fields__)
        assert payload["times"] == wire.times and payload["times"] is not wire.times
        assert payload["measurements"] is not wire.measurements
        if isinstance(wire.sigma, list):
            assert payload["sigma"] == wire.sigma and payload["sigma"] is not wire.sigma

    @settings(max_examples=40, deadline=None)
    @given(result=wire_results(), error=wire_errors())
    def test_payload_keys_are_the_schema(self, result, error):
        for obj, listed in ((result, "coefficients"), (error, "details")):
            payload = obj.to_payload()
            assert list(payload) == list(type(obj).__dataclass_fields__)
            assert payload[listed] == getattr(obj, listed)
            assert payload[listed] is not getattr(obj, listed)

    def test_request_bridge_floats_are_bit_exact(self):
        values = np.array([0.1, -0.0, 1e-308, 5e-324, np.pi, 2.0**53 + 1])
        request = FitRequest(times=values, measurements=values[::-1], sigma=values + 1.0)
        wire = WireFit.from_request(request)
        for encoded, source in (
            (wire.times, values),
            (wire.measurements, values[::-1]),
            (wire.sigma, values + 1.0),
        ):
            assert all(type(v) is float for v in encoded)
            assert struct.pack(f"{len(source)}d", *encoded) == source.tobytes()
