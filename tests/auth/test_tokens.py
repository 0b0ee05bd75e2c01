"""Tests for authorization tokens (section 4.3)."""

import pytest

from repro.auth.tokens import AuthorizationToken, TokenRights
from repro.errors import TokenError
from tests.auth.test_verification import make_advertisement


@pytest.fixture
def advertisement(keypair, second_keypair):
    """An advertisement owned by `keypair`, 'signed' by a TDN stand-in."""
    return make_advertisement(keypair, second_keypair, topic_value=77)


class TestCreation:
    def test_create_returns_token_and_private_key(self, advertisement, keypair, rng):
        token, private = AuthorizationToken.create(
            advertisement, keypair.private, TokenRights.PUBLISH, 100.0, 500.0, rng
        )
        assert token.rights is TokenRights.PUBLISH
        assert token.valid_from_ms == 100.0
        assert token.valid_until_ms == 600.0
        assert private.public.n == token.token_public_key.n
        token.verify_owner_signature()

    def test_token_keypair_is_random(self, advertisement, keypair, rng):
        """Random key pairs hide the broker's identity (section 4.3)."""
        token_a, _ = AuthorizationToken.create(
            advertisement, keypair.private, TokenRights.PUBLISH, 0, 100, rng
        )
        token_b, _ = AuthorizationToken.create(
            advertisement, keypair.private, TokenRights.PUBLISH, 0, 100, rng
        )
        assert token_a.token_public_key != token_b.token_public_key
        assert token_a.token_public_key != keypair.public


class TestValidity:
    def test_expiry_with_skew_tolerance(self, advertisement, keypair, rng):
        token, _ = AuthorizationToken.create(
            advertisement, keypair.private, TokenRights.PUBLISH, 0.0, 1000.0, rng
        )
        assert not token.expired(1000.0)
        # within the paper's NTP skew band (30-100 ms) still accepted
        assert not token.expired(1099.0, skew_tolerance_ms=100.0)
        assert token.expired(1101.0, skew_tolerance_ms=100.0)

    def test_not_yet_valid(self, advertisement, keypair, rng):
        token, _ = AuthorizationToken.create(
            advertisement, keypair.private, TokenRights.PUBLISH, 500.0, 1000.0, rng
        )
        assert token.not_yet_valid(300.0)
        assert not token.not_yet_valid(450.0, skew_tolerance_ms=100.0)
        assert not token.not_yet_valid(600.0)


class TestForgery:
    def test_forged_owner_signature_rejected(
        self, advertisement, keypair, second_keypair, rng
    ):
        """A token signed by someone other than the topic owner fails."""
        token, _ = AuthorizationToken.create(
            advertisement, second_keypair.private, TokenRights.PUBLISH, 0, 100, rng
        )
        with pytest.raises(TokenError):
            token.verify_owner_signature()

    def test_mutated_fields_rejected(self, advertisement, keypair, rng):
        token, _ = AuthorizationToken.create(
            advertisement, keypair.private, TokenRights.PUBLISH, 0.0, 100.0, rng
        )
        stretched = AuthorizationToken(
            advertisement=token.advertisement,
            token_public_key=token.token_public_key,
            rights=token.rights,
            valid_from_ms=token.valid_from_ms,
            valid_until_ms=token.valid_until_ms + 1_000_000,  # stretch validity
            owner_signature=token.owner_signature,
        )
        with pytest.raises(TokenError):
            stretched.verify_owner_signature()


class TestWireForm:
    def test_dict_roundtrip(self, advertisement, keypair, rng):
        token, _ = AuthorizationToken.create(
            advertisement, keypair.private, TokenRights.PUBLISH, 0.0, 100.0, rng
        )
        restored = AuthorizationToken.from_dict(token.to_dict())
        assert restored.advertisement.fields.trace_topic == token.advertisement.fields.trace_topic
        assert restored.token_public_key == token.token_public_key
        restored.verify_owner_signature()

    def test_malformed_dict_rejected(self):
        with pytest.raises(TokenError):
            AuthorizationToken.from_dict({"nope": 1})

    def test_bad_rights_rejected(self, advertisement, keypair, rng):
        token, _ = AuthorizationToken.create(
            advertisement, keypair.private, TokenRights.PUBLISH, 0.0, 100.0, rng
        )
        data = token.to_dict()
        data["rights"] = "world-domination"
        with pytest.raises(TokenError):
            AuthorizationToken.from_dict(data)
