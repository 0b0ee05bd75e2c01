"""Tests for broker-side token verification and the trace guard."""

from dataclasses import replace

import pytest

from repro.auth.tokens import AuthorizationToken, TokenRights
from repro.auth.verification import TokenVerifier, TraceAuthorizationGuard
from repro.crypto.keys import KeyPair
from repro.crypto.signing import sign_payload
from repro.errors import TokenError
from repro.messaging.constrained import ConstrainedTopic, is_constrained
from repro.messaging.topics import Topic
from repro.tdn.advertisement import AdvertisedTopic, TopicAdvertisement, TopicLifetime
from repro.tdn.query import DiscoveryRestrictions, trace_descriptor
from repro.util.identifiers import UUID128
from repro.util.serialization import Canonical


def make_advertisement(owner_pair, tdn_pair, tdn_name="tdn-0", topic_value=5):
    fields = AdvertisedTopic(
        trace_topic=UUID128(topic_value),
        descriptor=trace_descriptor("svc"),
        owner_subject="svc",
        owner_public_key=owner_pair.public,
        restrictions=DiscoveryRestrictions.open_to_authenticated(),
        lifetime=TopicLifetime(0.0, 1e9),
        issuing_tdn=tdn_name,
    )
    return TopicAdvertisement(fields, sign_payload(fields.to_dict(), tdn_pair.private))


@pytest.fixture
def verifier(second_keypair):
    return TokenVerifier({"tdn-0": second_keypair.public})


@pytest.fixture
def valid_token_wire(keypair, second_keypair, rng):
    ad = make_advertisement(keypair, second_keypair)
    token, _ = AuthorizationToken.create(
        ad, keypair.private, TokenRights.PUBLISH, 0.0, 10_000.0, rng
    )
    return token.wire


class TestTokenVerifier:
    def test_valid_token_passes(self, verifier, valid_token_wire):
        token = verifier.verify(valid_token_wire, now_ms=100.0)
        assert token.rights is TokenRights.PUBLISH

    def test_expired_rejected(self, verifier, valid_token_wire):
        with pytest.raises(TokenError):
            verifier.verify(valid_token_wire, now_ms=10_200.0)

    def test_skew_tolerance_applied(self, verifier, valid_token_wire):
        verifier.verify(valid_token_wire, now_ms=10_099.0)  # inside tolerance

    def test_untrusted_tdn_rejected(self, keypair, second_keypair, rng):
        verifier = TokenVerifier({})  # trusts no TDN
        ad = make_advertisement(keypair, second_keypair)
        token, _ = AuthorizationToken.create(
            ad, keypair.private, TokenRights.PUBLISH, 0.0, 10_000.0, rng
        )
        with pytest.raises(TokenError):
            verifier.verify(token.wire, now_ms=0.0)

    def test_forged_advertisement_rejected(self, keypair, second_keypair, rng):
        # advertisement signed by the owner, not the TDN
        ad = make_advertisement(keypair, keypair)
        verifier = TokenVerifier({"tdn-0": second_keypair.public})
        token, _ = AuthorizationToken.create(
            ad, keypair.private, TokenRights.PUBLISH, 0.0, 10_000.0, rng
        )
        with pytest.raises(TokenError):
            verifier.verify(token.wire, now_ms=0.0)

    def test_subscribe_rights_rejected_for_publish(
        self, verifier, keypair, second_keypair, rng
    ):
        ad = make_advertisement(keypair, second_keypair)
        token, _ = AuthorizationToken.create(
            ad, keypair.private, TokenRights.SUBSCRIBE, 0.0, 10_000.0, rng
        )
        with pytest.raises(TokenError):
            verifier.verify(token.wire, now_ms=0.0)

    def test_advertisement_cache_used(self, verifier, valid_token_wire):
        verifier.verify(valid_token_wire, now_ms=0.0)
        assert len(verifier._advertisement_cache) == 1
        verifier.verify(valid_token_wire, now_ms=1.0)
        assert len(verifier._advertisement_cache) == 1

    def test_a_verified_topic_does_not_vouch_for_another_owner_key(
        self, verifier, keypair, second_keypair, valid_token_wire, rng
    ):
        """The advertisement cache used to be keyed by trace topic alone: once
        the genuine advertisement had verified, one naming the same topic with
        an attacker's key as owner skipped the TDN check, and a token the
        attacker signed was accepted."""
        verifier.verify(valid_token_wire, now_ms=0.0)
        attacker = KeyPair.generate(rng)
        genuine = make_advertisement(keypair, second_keypair)
        forged_ad = replace(
            genuine, fields=replace(genuine.fields, owner_public_key=attacker.public)
        )
        forged, _ = AuthorizationToken.create(
            forged_ad, attacker.private, TokenRights.PUBLISH, 0.0, 10_000.0, rng
        )
        with pytest.raises(TokenError, match="advertisement signature invalid"):
            verifier.verify(forged.wire, now_ms=0.0)

    def test_malformed_rejected(self, verifier):
        with pytest.raises(TokenError):
            verifier.verify(Canonical.of({"garbage": True}), now_ms=0.0)


def constrained_form(topic):
    """What ``Broker.constrained_form`` holds for a topic string."""
    return ConstrainedTopic.parse(topic) if is_constrained(topic) else None


class TestGuardApplicability:
    def test_applies_to_trace_publication_topics(self, verifier):
        guard = TraceAuthorizationGuard(verifier)
        topic = Topic.parse("Constrained/Traces/Broker/Publish-Only/abc/Load")
        assert guard.applies_to(constrained_form(topic.canonical))

    @pytest.mark.parametrize(
        "topic",
        [
            "News/Sports",  # unconstrained
            "Constrained/Traces/Broker/Subscribe-Only/Registration",  # funnel topic
            "Constrained/Traces/svc/Subscribe-Only/abc/def",  # entity constrainer
            "Constrained/Admin/Broker/Publish-Only/x",  # not Traces event type
        ],
    )
    def test_does_not_apply_elsewhere(self, verifier, topic):
        guard = TraceAuthorizationGuard(verifier)
        assert not guard.applies_to(constrained_form(Topic.parse(topic).canonical))
