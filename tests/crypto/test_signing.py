"""Tests for message signing and hybrid sealing."""

import pytest

from repro.crypto.signing import (
    SealedPayload,
    SignedEnvelope,
    open_sealed,
    seal_for,
    sign_payload,
    verify_signed,
    verify_signed_body,
)
from repro.errors import DecryptionError, SignatureError


class TestSignedEnvelope:
    def test_roundtrip(self, keypair):
        payload = {"trace": "ALLS_WELL", "n": 3, "data": b"\x01"}
        envelope = sign_payload(payload, keypair.private)
        assert verify_signed(envelope, payload, keypair.public)

    def test_tampered_payload_rejected(self, keypair):
        envelope = sign_payload({"x": 1}, keypair.private)
        tampered = SignedEnvelope(
            payload={"x": 2},
            signature=envelope.signature,
            signer_fingerprint=envelope.signer_fingerprint,
        )
        with pytest.raises(SignatureError):
            verify_signed(tampered, {"x": 2}, keypair.public)

    def test_wrong_key_rejected(self, keypair, second_keypair):
        envelope = sign_payload({"x": 1}, keypair.private)
        with pytest.raises(SignatureError):
            verify_signed(envelope, {"x": 1}, second_keypair.public)

    def test_fingerprint_mismatch_detected_first(self, keypair, second_keypair):
        envelope = sign_payload({"x": 1}, keypair.private)
        forged = SignedEnvelope(
            payload=envelope.payload,
            signature=envelope.signature,
            signer_fingerprint=second_keypair.public.fingerprint(),
        )
        with pytest.raises(SignatureError):
            verify_signed(forged, {"x": 1}, second_keypair.public)

    def test_dict_roundtrip(self, keypair):
        envelope = sign_payload({"a": [1, 2]}, keypair.private)
        restored = SignedEnvelope.from_dict(envelope.to_dict())
        assert restored == envelope
        assert verify_signed(restored, {"a": [1, 2]}, keypair.public)

    def test_payload_key_order_irrelevant(self, keypair):
        envelope = sign_payload({"a": 1, "b": 2}, keypair.private)
        reordered = SignedEnvelope(
            payload={"b": 2, "a": 1},
            signature=envelope.signature,
            signer_fingerprint=envelope.signer_fingerprint,
        )
        assert verify_signed(reordered, {"a": 1, "b": 2}, keypair.public)


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
        signature = sign_payload(SIGNED_BODY, keypair.private).to_dict()
        assert verify_signed_body(signature, dict(SIGNED_BODY), keypair.public)

    def test_a_swapped_body_is_false(self, keypair):
        signature = sign_payload(SIGNED_BODY, keypair.private).to_dict()
        assert not verify_signed_body(signature, {**SIGNED_BODY, "seq": 2}, keypair.public)

    @pytest.mark.parametrize("body", EQUAL_NOT_SIGNED, ids=("bool", "int", "float"))
    def test_an_equal_body_with_other_bytes_does_not_verify(self, keypair, body):
        assert body == SIGNED_BODY
        signature = sign_payload(SIGNED_BODY, keypair.private).to_dict()
        with pytest.raises(SignatureError):
            verify_signed_body(signature, body, keypair.public)


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
