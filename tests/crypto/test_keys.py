"""Tests for key abstractions."""

import pytest

from repro.crypto.keys import KeyPair, SymmetricKey


class TestSymmetricKey:
    def test_generate_defaults_to_192(self, rng):
        key = SymmetricKey.generate(rng)
        assert key.key.bits == 192
        assert key.algorithm == "AES/CBC"
        assert key.padding == "PKCS7"

    def test_encrypt_decrypt(self, rng):
        key = SymmetricKey.generate(rng)
        ciphertext = key.encrypt(b"trace body", rng)
        assert key.decrypt(ciphertext) == b"trace body"

    def test_dict_roundtrip(self, rng):
        key = SymmetricKey.generate(rng)
        restored = SymmetricKey.from_dict(key.to_dict())
        assert restored == key
        # a key restored from the wire decrypts what the original encrypted
        ciphertext = key.encrypt(b"payload", rng)
        assert restored.decrypt(ciphertext) == b"payload"

    def test_dict_carries_scheme_metadata(self, rng):
        data = SymmetricKey.generate(rng).to_dict()
        assert data["algorithm"] == "AES/CBC"
        assert data["padding"] == "PKCS7"
        assert len(bytes(data["key"])) == 24

    def test_unsupported_scheme_rejected(self, rng):
        key = SymmetricKey.generate(rng)
        weird = SymmetricKey(key=key.key, algorithm="ROT13", padding="none")
        with pytest.raises(ValueError):
            weird.encrypt(b"x", rng)
        with pytest.raises(ValueError):
            weird.decrypt(b"x" * 32)


class TestKeyPair:
    def test_generate(self, rng):
        pair = KeyPair.generate(rng)
        assert pair.public.n == pair.private.n
        signature = pair.private.sign(b"m")
        pair.public.verify(b"m", signature)

    def test_custom_bits(self, rng):
        pair = KeyPair.generate(rng, bits=256)
        assert pair.public.n.bit_length() == 256
