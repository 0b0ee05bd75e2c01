"""Tests for entity credentials."""

import pytest

from repro.auth.credentials import EntityCredentials
from repro.crypto.signing import verify_signed
from repro.errors import SignatureError


class TestEntityCredentials:
    def test_issue_binds_subject(self, ca, rng):
        creds = EntityCredentials.issue("svc-1", ca, rng)
        assert creds.subject == "svc-1"
        assert creds.certificate.subject == "svc-1"
        ca.verify(creds.certificate, now_ms=0.0)

    def test_sign_and_verify_own(self, ca, rng):
        creds = EntityCredentials.issue("svc-1", ca, rng)
        envelope = creds.sign({"hello": 1})
        assert verify_signed(envelope, {"hello": 1}, creds.public_key)

    def test_signature_not_transferable(self, ca, rng):
        alice = EntityCredentials.issue("alice", ca, rng)
        bob = EntityCredentials.issue("bob", ca, rng)
        envelope = alice.sign({"x": 1})
        with pytest.raises(SignatureError):
            verify_signed(envelope, {"x": 1}, bob.public_key)

    def test_public_key_matches_certificate(self, ca, rng):
        creds = EntityCredentials.issue("svc", ca, rng)
        assert creds.public_key == creds.certificate.public_key

    def test_validity_window_propagates(self, ca, rng):
        creds = EntityCredentials.issue("svc", ca, rng, not_after_ms=100.0)
        assert creds.certificate.not_after_ms == 100.0
