"""Tests for repro.crypto.digest."""

from repro.crypto.digest import sha1_digest


class TestDigestFunctions:
    def test_sha1_known_answer(self):
        # SHA-1("abc") from FIPS 180
        assert (
            sha1_digest(b"abc").hex()
            == "a9993e364706816aba3e25717850c26c9cd0d89d"
        )

    def test_sha1_is_160_bits(self):
        assert len(sha1_digest(b"")) == 20
