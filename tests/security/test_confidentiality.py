"""Tests for trace confidentiality (section 5.1)."""

import pytest

from repro.crypto.keys import SymmetricKey
from repro.errors import DecryptionError
from repro.security.confidentiality import unwrap_trace_body, wrap_trace_body
from repro.tracing.traces import TraceBody, TraceType


@pytest.fixture
def trace_key(rng):
    return SymmetricKey.generate(rng)


TRACE = TraceBody(
    TraceType.ALLS_WELL,
    "svc-1",
    {"rtt_ms": 5.0},
    trace_topic="ab" * 16,
    origin_stamp_ms=123.0,
)
BODY = TRACE.to_dict()


class TestWrapUnwrap:
    def test_roundtrip(self, trace_key, rng):
        wrapped = wrap_trace_body(TRACE, trace_key, rng).to_dict()
        assert wrapped["secured"] is True
        assert unwrap_trace_body(wrapped, trace_key) == BODY

    def test_payload_not_visible_in_wrapped_form(self, trace_key, rng):
        wrapped = wrap_trace_body(TRACE, trace_key, rng).to_dict()
        assert b"ALLS_WELL" not in wrapped["ciphertext"]
        assert "payload" not in wrapped

    def test_routing_topic_stays_visible(self, trace_key, rng):
        wrapped = wrap_trace_body(TRACE, trace_key, rng).to_dict()
        assert wrapped["trace_topic"] == BODY["trace_topic"]

    def test_wrong_key_fails(self, trace_key, rng):
        other = SymmetricKey.generate(rng)
        wrapped = wrap_trace_body(TRACE, trace_key, rng).to_dict()
        with pytest.raises(DecryptionError):
            unwrap_trace_body(wrapped, other)

    def test_tampered_ciphertext_fails(self, trace_key, rng):
        wrapped = wrap_trace_body(TRACE, trace_key, rng).to_dict()
        ct = bytearray(wrapped["ciphertext"])
        ct[20] ^= 0x01
        wrapped["ciphertext"] = bytes(ct)
        with pytest.raises(DecryptionError):
            unwrap_trace_body(wrapped, trace_key)

    def test_unsecured_body_rejected(self, trace_key):
        with pytest.raises(DecryptionError):
            unwrap_trace_body(BODY, trace_key)
        with pytest.raises(DecryptionError):
            unwrap_trace_body({"secured": True}, trace_key)
        with pytest.raises(DecryptionError):
            unwrap_trace_body("not a dict", trace_key)  # type: ignore[arg-type]

    def test_randomized_ciphertext(self, trace_key, rng):
        a = wrap_trace_body(TRACE, trace_key, rng).to_dict()
        b = wrap_trace_body(TRACE, trace_key, rng).to_dict()
        assert a["ciphertext"] != b["ciphertext"]
