"""Tests for the token verification cache (repro.auth.cache).

Unit coverage first — LRU behaviour, validity-window checks, the
hit/miss/evicted counters — then the integration properties ISSUE 5
demands: a cached token is *re*-verified once its validity window closes,
a revoked token stops working even while cached, and a restarted broker
starts with a cold cache.
"""

import sys

import pytest

from repro.auth import (
    AuthorizationToken,
    TokenRights,
    TokenVerificationCache,
    TokenVerifier,
    token_digest,
)
from repro.auth.tokens import DEFAULT_SKEW_TOLERANCE_MS
from repro.errors import ConfigurationError, TokenError
from repro.obs import MetricsRegistry
from repro.util import serialization

from tests.auth.test_verification import make_advertisement


def make_token(keypair, second_keypair, rng, valid_until_ms=10_000.0, topic_value=5):
    ad = make_advertisement(keypair, second_keypair, topic_value=topic_value)
    token, _ = AuthorizationToken.create(
        ad, keypair.private, TokenRights.PUBLISH, 0.0, valid_until_ms, rng
    )
    return token


@pytest.fixture
def token(keypair, second_keypair, rng):
    return make_token(keypair, second_keypair, rng)


def _holds_a_token_mapping(value) -> bool:
    if isinstance(value, dict):
        if "token_n" in value and "owner_signature" in value:
            return True
        return any(_holds_a_token_mapping(item) for item in value.values())
    if isinstance(value, (list, tuple)):
        return any(_holds_a_token_mapping(item) for item in value)
    return False


class TestCacheUnit:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            TokenVerificationCache(MetricsRegistry(), capacity=0)

    def test_store_then_lookup_hits(self, token):
        cache = TokenVerificationCache(MetricsRegistry())
        digest = token_digest(token.wire)
        assert cache.lookup(digest, 0.0, DEFAULT_SKEW_TOLERANCE_MS) is None
        cache.store(digest, token)
        assert cache.lookup(digest, 100.0, DEFAULT_SKEW_TOLERANCE_MS) is token
        assert digest in cache and len(cache) == 1

    def test_expired_entry_is_a_miss_and_is_dropped(self, token):
        cache = TokenVerificationCache(MetricsRegistry())
        digest = token_digest(token.wire)
        cache.store(digest, token)
        assert cache.lookup(digest, 10_500.0, DEFAULT_SKEW_TOLERANCE_MS) is None
        assert digest not in cache

    def test_skew_tolerance_keeps_borderline_entries_alive(self, token):
        cache = TokenVerificationCache(MetricsRegistry())
        digest = token_digest(token.wire)
        cache.store(digest, token)
        assert cache.lookup(digest, 10_050.0, DEFAULT_SKEW_TOLERANCE_MS) is token

    def test_lru_eviction_order(self, keypair, second_keypair, rng):
        cache = TokenVerificationCache(MetricsRegistry(), capacity=2)
        tokens = [
            make_token(keypair, second_keypair, rng, topic_value=i) for i in (1, 2, 3)
        ]
        digests = [token_digest(t.wire) for t in tokens]
        cache.store(digests[0], tokens[0])
        cache.store(digests[1], tokens[1])
        # touch the oldest so the *other* entry becomes LRU
        assert cache.lookup(digests[0], 0.0, DEFAULT_SKEW_TOLERANCE_MS) is tokens[0]
        cache.store(digests[2], tokens[2])
        assert digests[0] in cache and digests[2] in cache
        assert digests[1] not in cache

    def test_counters_recorded(self, token):
        metrics = MetricsRegistry()
        cache = TokenVerificationCache(metrics, capacity=1)
        digest = token_digest(token.wire)
        counters = metrics.snapshot()["counters"]
        assert counters["auth.token.cache.hit"] == 0  # materialized zeros
        cache.lookup(digest, 0.0, DEFAULT_SKEW_TOLERANCE_MS)  # miss
        cache.store(digest, token)
        cache.lookup(digest, 0.0, DEFAULT_SKEW_TOLERANCE_MS)  # hit
        cache.store(b"other-digest-0000000", token)  # evicts
        counters = metrics.snapshot()["counters"]
        assert counters["auth.token.cache.miss"] == 1
        assert counters["auth.token.cache.hit"] == 1
        assert counters["auth.token.cache.evicted"] == 1

    def test_clear_and_discard(self, token):
        cache = TokenVerificationCache(MetricsRegistry())
        digest = token_digest(token.wire)
        cache.store(digest, token)
        cache.discard(digest)
        assert len(cache) == 0
        cache.discard(digest)  # absent: no-op
        cache.store(digest, token)
        cache.clear()
        assert digest not in cache


class TestVerifierIntegration:
    def test_revoked_token_rejected_even_while_cached(
        self, second_keypair, token
    ):
        cache = TokenVerificationCache(MetricsRegistry())
        verifier = TokenVerifier({"tdn-0": second_keypair.public}, cache=cache)
        wire = token.wire
        digest = token_digest(wire)
        cache.store(digest, verifier.verify(wire, now_ms=0.0))
        verifier.revoke(wire)
        assert digest not in cache  # revocation purges the cache entry
        with pytest.raises(TokenError):
            verifier.verify(wire, now_ms=1.0)

    def test_expiry_forces_reverification(self, second_keypair, token):
        cache = TokenVerificationCache(MetricsRegistry())
        verifier = TokenVerifier({"tdn-0": second_keypair.public}, cache=cache)
        wire = token.wire
        digest = token_digest(wire)
        cache.store(digest, verifier.verify(wire, now_ms=0.0))
        # inside the window the cache answers; past it the entry is purged
        assert cache.lookup(digest, 9_000.0, verifier.skew_tolerance_ms) is not None
        assert cache.lookup(digest, 10_200.0, verifier.skew_tolerance_ms) is None
        assert digest not in cache

    @pytest.mark.parametrize("past_window_ms", [-1.0, 1.0], ids=["inside", "outside"])
    def test_refresh_check_and_verifier_share_one_skew_tolerance(
        self, second_keypair, token, past_window_ms
    ):
        # the broker refreshes a session's token when token.expired(now) holds,
        # with the default tolerance; a verifier must reject exactly those tokens
        verifier = TokenVerifier({"tdn-0": second_keypair.public})
        now = token.valid_until_ms + DEFAULT_SKEW_TOLERANCE_MS + past_window_ms
        try:
            verifier.verify(token.wire, now_ms=now)
            rejected = False
        except TokenError:
            rejected = True
        assert rejected is (past_window_ms > 0)
        assert token.expired(now) is rejected


class TestDeploymentIntegration:
    def test_restarted_broker_starts_cold(self):
        from repro import build_deployment

        dep = build_deployment(broker_ids=["b1", "b2"], seed=7)
        entity = dep.add_traced_entity("svc")
        tracker = dep.add_tracker("w")
        tracker.connect("b2")
        entity.start("b1")
        dep.sim.run(until=3_000)
        tracker.track("svc")
        dep.sim.run(until=20_000)

        cache = dep.broker_verifiers["b1"].cache
        assert cache is not None and len(cache) > 0
        dep.network.fail_broker("b1")
        dep.restart_broker("b1", neighbors=["b2"])
        assert len(cache) == 0

    def test_steady_state_neither_encodes_nor_builds_a_token(self, monkeypatch):
        """The token is encoded once, where it is issued: past set-up, no
        frame sizing, signing or cache key renders a token mapping, and no
        token is turned back into one, while every hop still hits the cache."""
        from repro import build_deployment

        dep = build_deployment(broker_ids=["b1", "b2", "b3"], seed=7)
        entity = dep.add_traced_entity("svc")
        tracker = dep.add_tracker("w")
        tracker.connect("b3")
        entity.start("b1")
        dep.sim.run(until=3_000)
        tracker.track("svc")
        dep.sim.run(until=20_000)

        # recorded, not raised: a simulation process would swallow the raise
        token_encodes = []

        def watch_for_tokens(encode):
            def checked(value, *rest):
                if _holds_a_token_mapping(value):
                    token_encodes.append(value)
                return encode(value, *rest)

            return checked

        for name in ("canonical_encode", "canonical_encode_into"):
            original = getattr(serialization, name)
            for module_name, module in list(sys.modules.items()):
                if module_name.startswith("repro") and getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, watch_for_tokens(original))
        to_dict_calls = []
        to_dict = AuthorizationToken.to_dict

        def counted_to_dict(token):
            to_dict_calls.append(token)
            return to_dict(token)

        monkeypatch.setattr(AuthorizationToken, "to_dict", counted_to_dict)
        hits = dep.metrics.counter_value("auth.token.cache.hit")
        received = len(tracker.received)
        dep.sim.run(until=60_000)

        assert token_encodes == [] and to_dict_calls == []
        assert len(tracker.received) > received
        assert dep.metrics.counter_value("auth.token.cache.hit") > hits

    def test_every_broker_gets_its_own_verifier(self):
        from repro import build_deployment

        dep = build_deployment(broker_ids=["b1", "b2"], seed=7)
        verifiers = {id(v) for v in dep.broker_verifiers.values()}
        assert len(verifiers) == len(dep.broker_verifiers) == 2
        caches = {id(v.cache) for v in dep.broker_verifiers.values()}
        assert len(caches) == 2
