"""Tests for message signing and hybrid sealing."""

import pytest

from repro.crypto.signing import (
    SealedPayload,
    SignedEnvelope,
    open_sealed,
    seal_for,
    sign_payload,
    signed_value,
    verify_signed,
    verify_signed_body,
)
from repro.errors import DecryptionError, MalformedEnvelopeError, SignatureError
from repro.util.serialization import Canonical


class TestSignedEnvelope:
    def test_roundtrip(self, keypair):
        payload = {"trace": "ALLS_WELL", "n": 3, "data": b"\x01"}
        envelope = sign_payload(payload, keypair.private)
        assert verify_signed(envelope, payload, keypair.public) is None

    def test_tampered_payload_rejected(self, keypair):
        envelope = sign_payload({"x": 1}, keypair.private)
        with pytest.raises(SignatureError, match="signature does not verify"):
            verify_signed(envelope, {"x": 2}, keypair.public)

    def test_wrong_key_rejected(self, keypair, second_keypair):
        envelope = sign_payload({"x": 1}, keypair.private)
        with pytest.raises(SignatureError):
            verify_signed(envelope, {"x": 1}, second_keypair.public)

    def test_fingerprint_mismatch_detected_first(self, keypair, second_keypair):
        envelope = sign_payload({"x": 1}, keypair.private)
        forged = SignedEnvelope(
            signature=envelope.signature,
            signer_fingerprint=second_keypair.public.fingerprint(),
        )
        with pytest.raises(SignatureError, match="signature does not verify"):
            verify_signed(forged, {"x": 1}, second_keypair.public)
        with pytest.raises(SignatureError, match="not signed by the presented key"):
            verify_signed(envelope, {"x": 1}, second_keypair.public)

    def test_dict_roundtrip(self, keypair):
        envelope = sign_payload({"a": [1, 2]}, keypair.private)
        restored = SignedEnvelope.from_dict(envelope.to_dict())
        assert restored == envelope
        verify_signed(restored, {"a": [1, 2]}, keypair.public)

    def test_payload_key_order_irrelevant(self, keypair):
        envelope = sign_payload({"a": 1, "b": 2}, keypair.private)
        verify_signed(envelope, {"b": 2, "a": 1}, keypair.public)


#: A signed body and three bodies Python calls equal to it whose canonical
#: bytes differ from what was signed.
SIGNED_BODY = {"seq": 1, "origin_stamp_ms": 5.0, "payload": {"x": 1}}
EQUAL_NOT_SIGNED = (
    {"seq": True, "origin_stamp_ms": 5.0, "payload": {"x": 1}},
    {"seq": 1, "origin_stamp_ms": 5, "payload": {"x": 1}},
    {"seq": 1, "origin_stamp_ms": 5.0, "payload": {"x": 1.0}},
)


class TestVerifySignedBody:
    def test_the_signed_body_verifies(self, keypair):
        body = Canonical.of(dict(SIGNED_BODY))
        signature = sign_payload(body, keypair.private).to_dict()
        assert verify_signed_body(signature, body, keypair.public) is body.value
        received = Canonical(body.data)
        assert verify_signed_body(signature, received, keypair.public) == SIGNED_BODY

    def test_a_swapped_body_is_refused(self, keypair):
        signature = sign_payload(Canonical.of(SIGNED_BODY), keypair.private).to_dict()
        swapped = Canonical.of({**SIGNED_BODY, "seq": 2})
        with pytest.raises(SignatureError, match="signature does not verify"):
            verify_signed_body(signature, swapped, keypair.public)

    @pytest.mark.parametrize("body", EQUAL_NOT_SIGNED, ids=("bool", "int", "float"))
    def test_an_equal_body_with_other_bytes_does_not_verify(self, keypair, body):
        assert body == SIGNED_BODY
        signature = sign_payload(SIGNED_BODY, keypair.private).to_dict()
        with pytest.raises(SignatureError, match="signature does not verify"):
            verify_signed_body(signature, Canonical.of(body), keypair.public)

    def test_a_body_that_is_not_signed_bytes_is_malformed(self, keypair):
        """A plain mapping is not re-encoded to be checked, and signed bytes
        that do not decode are no body."""
        signature = sign_payload(SIGNED_BODY, keypair.private).to_dict()
        with pytest.raises(MalformedEnvelopeError, match="travels as Canonical bytes"):
            verify_signed_body(signature, dict(SIGNED_BODY), keypair.public)
        garbage = Canonical(b"d")
        signature = sign_payload(garbage, keypair.private).to_dict()
        with pytest.raises(MalformedEnvelopeError, match="does not decode"):
            verify_signed_body(signature, garbage, keypair.public)
        with pytest.raises(MalformedEnvelopeError, match="does not decode"):
            signed_value(garbage)


class TestSealing:
    def test_roundtrip(self, keypair, rng):
        payload = {"session": "abc", "key": b"\x00" * 24}
        sealed = seal_for(payload, keypair.public, rng)
        assert open_sealed(sealed, keypair.private) == payload

    def test_only_recipient_can_open(self, keypair, second_keypair, rng):
        sealed = seal_for({"secret": 1}, keypair.public, rng)
        with pytest.raises(DecryptionError):
            open_sealed(sealed, second_keypair.private)

    def test_large_payload(self, keypair, rng):
        payload = {"blob": b"\xab" * 10_000}
        sealed = seal_for(payload, keypair.public, rng)
        assert open_sealed(sealed, keypair.private) == payload

    def test_corrupt_ciphertext_rejected(self, keypair, rng):
        sealed = seal_for({"secret": 1}, keypair.public, rng)
        corrupted = SealedPayload(
            wrapped_key=sealed.wrapped_key,
            algorithm=sealed.algorithm,
            padding=sealed.padding,
            ciphertext=sealed.ciphertext[:-1] + bytes([sealed.ciphertext[-1] ^ 1]),
        )
        with pytest.raises(DecryptionError):
            open_sealed(corrupted, keypair.private)

    def test_corrupt_wrapped_key_rejected(self, keypair, rng):
        sealed = seal_for({"secret": 1}, keypair.public, rng)
        corrupted = SealedPayload(
            wrapped_key=bytes([sealed.wrapped_key[0] ^ 1]) + sealed.wrapped_key[1:],
            algorithm=sealed.algorithm,
            padding=sealed.padding,
            ciphertext=sealed.ciphertext,
        )
        with pytest.raises(DecryptionError):
            open_sealed(corrupted, keypair.private)

    def test_dict_roundtrip(self, keypair, rng):
        sealed = seal_for({"v": 9}, keypair.public, rng)
        restored = SealedPayload.from_dict(sealed.to_dict())
        assert open_sealed(restored, keypair.private) == {"v": 9}

    def test_seal_randomized(self, keypair, rng):
        a = seal_for({"v": 1}, keypair.public, rng)
        b = seal_for({"v": 1}, keypair.public, rng)
        assert a.ciphertext != b.ciphertext
        assert a.wrapped_key != b.wrapped_key
