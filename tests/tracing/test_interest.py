"""Tests for interest gauging state (section 3.5)."""

import pytest

from repro.crypto.certificates import Certificate
from repro.crypto.rsa import RSAPublicKey
from repro.errors import InterestError
from repro.tracing.interest import (
    ALL_CATEGORIES,
    InterestCategory,
    InterestRegistry,
)


def cert(subject: str) -> Certificate:
    """A certificate naming ``subject``: the registry keys entries by it."""
    return Certificate(subject, "ca", RSAPublicKey(77, 3), 1, 0.0, float("inf"), b"")


class TestCategories:
    def test_five_categories(self):
        assert len(ALL_CATEGORIES) == 5

    def test_parse_many(self):
        parsed = InterestCategory.parse_many(["load", "all_updates"])
        assert parsed == frozenset(
            {InterestCategory.LOAD, InterestCategory.ALL_UPDATES}
        )

    def test_parse_unknown(self):
        with pytest.raises(InterestError):
            InterestCategory.parse_many(["everything"])


class TestRegistry:
    def test_record_and_query(self):
        registry = InterestRegistry(ttl_ms=1000.0)
        registry.record(cert("t1"), frozenset({InterestCategory.LOAD}), now_ms=0.0)
        assert registry.interested_in(InterestCategory.LOAD, 500.0)
        assert not registry.interested_in(InterestCategory.ALL_UPDATES, 500.0)

    def test_no_interest_initially(self):
        registry = InterestRegistry()
        assert len(registry) == 0
        for category in ALL_CATEGORIES:
            assert not registry.interested_in(category, 0.0)

    def test_ttl_expiry(self):
        registry = InterestRegistry(ttl_ms=1000.0)
        registry.record(cert("t1"), frozenset({InterestCategory.LOAD}), now_ms=0.0)
        assert registry.interested_in(InterestCategory.LOAD, 999.0)
        assert not registry.interested_in(InterestCategory.LOAD, 1001.0)
        assert len(registry) == 0  # reaped

    def test_refresh_extends_ttl(self):
        registry = InterestRegistry(ttl_ms=1000.0)
        registry.record(cert("t1"), frozenset({InterestCategory.LOAD}), now_ms=0.0)
        registry.record(cert("t1"), frozenset({InterestCategory.LOAD}), now_ms=900.0)
        assert registry.interested_in(InterestCategory.LOAD, 1800.0)

    def test_empty_response_retracts(self):
        registry = InterestRegistry()
        registry.record(cert("t1"), frozenset({InterestCategory.LOAD}), 0.0)
        registry.record(cert("t1"), frozenset(), 1.0)
        assert not any(registry.interested_in(c, 2.0) for c in ALL_CATEGORIES)

    def test_active_categories_union(self):
        registry = InterestRegistry()
        registry.record(cert("t1"), frozenset({InterestCategory.LOAD}), 0.0)
        registry.record(cert("t2"), frozenset({InterestCategory.ALL_UPDATES}), 0.0)
        active = {c for c in ALL_CATEGORIES if registry.interested_in(c, 1.0)}
        assert active == {InterestCategory.LOAD, InterestCategory.ALL_UPDATES}

    def test_certificates_of_live_interest(self):
        registry = InterestRegistry(ttl_ms=1000.0)
        registry.record(cert("t1"), frozenset({InterestCategory.LOAD}), 0.0)
        registry.record(cert("t2"), frozenset({InterestCategory.LOAD}), 500.0)
        registry.record(cert("t1"), frozenset({InterestCategory.ALL_UPDATES}), 600.0)
        assert [c.subject for c in registry.certificates(1200.0)] == ["t1", "t2"]
        registry.record(cert("t2"), frozenset(), 1300.0)
        assert [c.subject for c in registry.certificates(1400.0)] == ["t1"]
        assert registry.certificates(1700.0) == []
