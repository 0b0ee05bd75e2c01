"""Tests for repro.crypto.rsa."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.rsa import generate_rsa_keypair
from repro.errors import DecryptionError, KeyMaterialError, PaddingError, SignatureError


class TestKeyGeneration:
    def test_key_properties(self, keypair):
        private = keypair.private
        assert private.n == private.p * private.q
        assert private.public.n == private.n
        assert keypair.public.n.bit_length() == 512

    def test_crt_parameters(self, keypair):
        private = keypair.private
        assert private.d_p == private.d % (private.p - 1)
        assert private.d_q == private.d % (private.q - 1)
        assert (private.q_inv * private.q) % private.p == 1

    def test_deterministic_given_rng(self):
        a = generate_rsa_keypair(random.Random(3), bits=256)
        b = generate_rsa_keypair(random.Random(3), bits=256)
        assert a.public == b.public

    def test_rejects_bad_sizes(self):
        with pytest.raises(KeyMaterialError):
            generate_rsa_keypair(random.Random(0), bits=100)
        with pytest.raises(KeyMaterialError):
            generate_rsa_keypair(random.Random(0), bits=513)

    def test_fingerprint_stable_and_distinct(self, keypair, second_keypair):
        assert keypair.public.fingerprint() == keypair.public.fingerprint()
        assert keypair.public.fingerprint() != second_keypair.public.fingerprint()
        assert len(keypair.public.fingerprint()) == 20


class TestSignatures:
    def test_sign_verify_roundtrip(self, keypair):
        message = b"trace message payload"
        signature = keypair.private.sign(message)
        keypair.public.verify(message, signature)  # no exception

    def test_signature_length_is_modulus_length(self, keypair):
        signature = keypair.private.sign(b"x")
        assert len(signature) == keypair.public.byte_length

    def test_tampered_message_fails(self, keypair):
        signature = keypair.private.sign(b"original")
        with pytest.raises(SignatureError):
            keypair.public.verify(b"tampered", signature)

    def test_tampered_signature_fails(self, keypair):
        signature = bytearray(keypair.private.sign(b"msg"))
        signature[5] ^= 0x01
        with pytest.raises(SignatureError):
            keypair.public.verify(b"msg", bytes(signature))

    def test_wrong_key_fails(self, keypair, second_keypair):
        signature = keypair.private.sign(b"msg")
        with pytest.raises(SignatureError):
            second_keypair.public.verify(b"msg", signature)

    def test_wrong_length_signature_rejected(self, keypair):
        with pytest.raises(SignatureError):
            keypair.public.verify(b"msg", b"\x00" * 10)

    def test_out_of_range_signature_rejected(self, keypair):
        too_big = (keypair.public.n + 1).to_bytes(keypair.public.byte_length, "big")
        with pytest.raises(SignatureError):
            keypair.public.verify(b"msg", too_big)

    def test_empty_message(self, keypair):
        signature = keypair.private.sign(b"")
        keypair.public.verify(b"", signature)

    @given(st.binary(max_size=200))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_property(self, message):
        keypair = _CACHED_PAIR
        keypair.public.verify(message, keypair.private.sign(message))


class TestEncryption:
    def test_encrypt_decrypt_roundtrip(self, keypair, rng):
        plaintext = b"secret trace key material!"
        ciphertext = keypair.public.encrypt(plaintext, rng)
        assert keypair.private.decrypt(ciphertext) == plaintext

    def test_ciphertext_randomized(self, keypair, rng):
        a = keypair.public.encrypt(b"same", rng)
        b = keypair.public.encrypt(b"same", rng)
        assert a != b
        assert keypair.private.decrypt(a) == keypair.private.decrypt(b)

    def test_wrong_key_fails(self, keypair, second_keypair, rng):
        ciphertext = keypair.public.encrypt(b"secret", rng)
        with pytest.raises(DecryptionError):
            second_keypair.private.decrypt(ciphertext)

    def test_plaintext_too_long_rejected(self, keypair, rng):
        max_len = keypair.public.byte_length - 11
        with pytest.raises(KeyMaterialError):
            keypair.public.encrypt(b"x" * (max_len + 1), rng)
        # boundary: exactly max_len is fine
        ciphertext = keypair.public.encrypt(b"x" * max_len, rng)
        assert keypair.private.decrypt(ciphertext) == b"x" * max_len

    def test_corrupted_ciphertext_rejected(self, keypair, rng):
        ciphertext = bytearray(keypair.public.encrypt(b"data", rng))
        ciphertext[0] ^= 0xFF
        with pytest.raises(DecryptionError):
            keypair.private.decrypt(bytes(ciphertext))

    def test_wrong_length_ciphertext_rejected(self, keypair):
        with pytest.raises(DecryptionError):
            keypair.private.decrypt(b"\x01\x02")

    def test_empty_plaintext(self, keypair, rng):
        assert keypair.private.decrypt(keypair.public.encrypt(b"", rng)) == b""


_CACHED_PAIR = generate_rsa_keypair(random.Random(0xFEED))
