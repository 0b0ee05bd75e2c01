"""Tests for the TDN advertisement store."""

import pytest

from repro.crypto.signing import SignedEnvelope
from repro.tdn.advertisement import TopicAdvertisement, TopicLifetime
from repro.tdn.query import DiscoveryRestrictions, trace_descriptor
from repro.tdn.registry import AdvertisementStore
from repro.util.identifiers import UUID128


def make_ad(keypair, topic_value, entity="svc", created=0.0, duration=1000.0):
    return TopicAdvertisement(
        trace_topic=UUID128(topic_value),
        descriptor=trace_descriptor(entity),
        owner_subject=entity,
        owner_public_key=keypair.public,
        restrictions=DiscoveryRestrictions.open_to_authenticated(),
        lifetime=TopicLifetime(created_ms=created, duration_ms=duration),
        issuing_tdn="tdn-0",
        signature=SignedEnvelope(payload={}, signature=b"", signer_fingerprint=b""),
    )


class TestStore:
    def test_put_get(self, keypair):
        store = AdvertisementStore()
        ad = make_ad(keypair, 1)
        store.put(ad)
        assert store.get(UUID128(1), now_ms=10.0) is ad
        assert len(store) == 1

    def test_get_missing(self, keypair):
        assert AdvertisementStore().get(UUID128(9), 0.0) is None

    def test_expired_treated_as_absent(self, keypair):
        store = AdvertisementStore()
        store.put(make_ad(keypair, 1, duration=100.0))
        assert store.get(UUID128(1), now_ms=50.0) is not None
        assert store.get(UUID128(1), now_ms=101.0) is None
        assert len(store) == 0  # lazily reaped

    def test_find_by_descriptor(self, keypair):
        store = AdvertisementStore()
        store.put(make_ad(keypair, 1, entity="a"))
        store.put(make_ad(keypair, 2, entity="b"))
        found = store.find_by_descriptor(trace_descriptor("a"), 0.0)
        assert [ad.trace_topic for ad in found] == [UUID128(1)]

    def test_reregistration_newest_first(self, keypair):
        """A re-registered topic (after compromise) shadows the old one."""
        store = AdvertisementStore()
        store.put(make_ad(keypair, 1, entity="a", created=0.0))
        store.put(make_ad(keypair, 2, entity="a", created=50.0))
        found = store.find_by_descriptor(trace_descriptor("a"), 60.0)
        assert [ad.trace_topic for ad in found] == [UUID128(2), UUID128(1)]

    def test_put_same_topic_replaces(self, keypair):
        store = AdvertisementStore()
        store.put(make_ad(keypair, 1, duration=100.0))
        store.put(make_ad(keypair, 1, duration=5000.0))
        assert len(store) == 1
        assert store.get(UUID128(1), now_ms=2000.0) is not None

    def test_remove(self, keypair):
        store = AdvertisementStore()
        store.put(make_ad(keypair, 1))
        store.remove(UUID128(1))
        assert store.get(UUID128(1), 0.0) is None
        assert store.find_by_descriptor(trace_descriptor("svc"), 0.0) == []

    def test_reap_expired(self, keypair):
        store = AdvertisementStore()
        store.put(make_ad(keypair, 1, duration=10.0))
        store.put(make_ad(keypair, 2, duration=1000.0))
        assert store.reap_expired(now_ms=500.0) == 1
        assert len(store) == 1


class TestLifetime:
    def test_alive_window(self):
        lt = TopicLifetime(created_ms=10.0, duration_ms=100.0)
        assert not lt.alive_at(9.0)
        assert lt.alive_at(10.0)
        assert lt.alive_at(110.0)
        assert not lt.alive_at(110.1)
        assert lt.expires_ms == 110.0

    def test_dict_roundtrip(self):
        lt = TopicLifetime(5.0, 50.0)
        assert TopicLifetime.from_dict(lt.to_dict()) == lt
