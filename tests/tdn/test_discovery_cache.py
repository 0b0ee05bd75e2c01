"""The TDN discovery cache: hits, invalidation, expiry, and store versioning."""

import pytest

from repro.auth.credentials import EntityCredentials
from repro.crypto.certificates import CertificateAuthority
from repro.crypto.costmodel import CryptoCostModel
from repro.crypto.signing import SignedEnvelope
from repro.sim.engine import Simulator
from repro.sim.machine import Machine
from repro.tdn.advertisement import (
    TopicAdvertisement,
    TopicCreationRequest,
    TopicLifetime,
)
from repro.tdn.cache import MISS, DiscoveryCache
from repro.tdn.node import TDNCluster
from repro.tdn.query import (
    DiscoveryQuery,
    DiscoveryRestrictions,
    trace_descriptor,
)
from repro.tdn.registry import AdvertisementStore
from repro.util.identifiers import RequestId, UUID128


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


class TestDiscoveryCacheUnit:
    def test_empty_lookup_is_miss(self):
        cache = DiscoveryCache()
        key = DiscoveryCache.key("one", "svc", None)
        assert cache.lookup(key, store_version=0, now_ms=0.0) is MISS
        assert cache.stats()["misses"] == 1

    def test_store_then_hit(self):
        cache = DiscoveryCache()
        key = DiscoveryCache.key("one", "svc", None)
        cache.store(key, store_version=3, valid_until_ms=100.0, result="answer")
        assert cache.lookup(key, store_version=3, now_ms=50.0) == "answer"
        assert cache.stats()["hits"] == 1

    def test_version_change_invalidates(self):
        cache = DiscoveryCache()
        key = DiscoveryCache.key("one", "svc", None)
        cache.store(key, store_version=3, valid_until_ms=100.0, result="answer")
        assert cache.lookup(key, store_version=4, now_ms=50.0) is MISS
        assert cache.stats()["invalidations"] == 1
        assert len(cache) == 0  # the stale entry is dropped, not retried

    def test_time_horizon_invalidates(self):
        cache = DiscoveryCache()
        key = DiscoveryCache.key("one", "svc", None)
        cache.store(key, store_version=3, valid_until_ms=100.0, result="answer")
        assert cache.lookup(key, store_version=3, now_ms=101.0) is MISS
        assert cache.stats()["invalidations"] == 1

    def test_lru_eviction(self):
        cache = DiscoveryCache(capacity=2)
        for name in ("a", "b", "c"):
            cache.store(
                DiscoveryCache.key("one", name, None), 0, 1e9, name
            )
        assert len(cache) == 2
        assert cache.lookup(DiscoveryCache.key("one", "a", None), 0, 0.0) is MISS
        assert cache.lookup(DiscoveryCache.key("one", "c", None), 0, 0.0) == "c"

    def test_key_pins_exact_certificate(self, keypair, second_keypair, rng):
        ca = CertificateAuthority("ca", rng)
        first = ca.issue("tracker", keypair.public)
        reissued = ca.issue("tracker", second_keypair.public)
        key_a = DiscoveryCache.key("one", "svc", first)
        key_b = DiscoveryCache.key("one", "svc", reissued)
        assert key_a != key_b  # serial differs: no aliasing across re-issues

    def test_clear_drops_everything(self):
        cache = DiscoveryCache()
        cache.store(DiscoveryCache.key("one", "svc", None), 0, 1e9, "answer")
        cache.clear()
        assert len(cache) == 0


class TestStoreVersion:
    def test_put_bumps_version(self, keypair):
        store = AdvertisementStore()
        start = store.version
        store.put(make_ad(keypair, 1))
        assert store.version == start + 1

    def test_replacement_bumps_version(self, keypair):
        store = AdvertisementStore()
        store.put(make_ad(keypair, 1, duration=100.0))
        before = store.version
        store.put(make_ad(keypair, 1, duration=500.0))
        assert store.version > before

    def test_remove_bumps_version_only_when_present(self, keypair):
        store = AdvertisementStore()
        store.put(make_ad(keypair, 1))
        before = store.version
        store.remove(UUID128(1))
        assert store.version == before + 1
        unchanged = store.version
        store.remove(UUID128(1))
        assert store.version == unchanged


@pytest.fixture
def setup(rng):
    sim = Simulator()
    ca = CertificateAuthority("ca", rng)
    cost_model = CryptoCostModel.free()
    machines = [Machine(sim, f"m{i}", cost_model, rng) for i in range(2)]
    cluster = TDNCluster(sim, ca, machines, uuid_seed=7)
    # route crypto.ops.* counters to the cluster registry so tests can
    # observe which discovery paths still pay certificate verifications
    cost_model.bind_metrics(cluster.monitor.metrics)
    entity = EntityCredentials.issue("svc-1", ca, rng)
    tracker = EntityCredentials.issue("tracker-1", ca, rng)
    return sim, ca, cluster, entity, tracker


def create_topic(sim, cluster, entity, lifetime=1_000_000.0):
    request = TopicCreationRequest(
        credentials=entity.certificate,
        descriptor=trace_descriptor(entity.subject),
        restrictions=DiscoveryRestrictions.open_to_authenticated(),
        lifetime_ms=lifetime,
        request_id=RequestId(1),
    )
    ad = sim.run_process(
        cluster.create_topic(request, entity.sign(request.signing_payload()))
    )
    sim.run()
    return ad


class TestDiscoveryIntegration:
    def _counter(self, cluster, name):
        return cluster.monitor.metrics.counter(name).value

    def test_repeat_discovery_hits_cache(self, setup):
        sim, ca, cluster, entity, tracker = setup
        create_topic(sim, cluster, entity)
        query = DiscoveryQuery.for_entity("svc-1")
        first = sim.run_process(cluster.discover(query, tracker.certificate))
        second = sim.run_process(cluster.discover(query, tracker.certificate))
        assert first is not None and second is first
        assert self._counter(cluster, "tdn.query.cache.hit") == 1
        assert self._counter(cluster, "tdn.query.cache.miss") == 1

    def test_cache_hit_skips_cert_verify_charges(self, setup):
        sim, ca, cluster, entity, tracker = setup
        create_topic(sim, cluster, entity)
        query = DiscoveryQuery.for_entity("svc-1")
        sim.run_process(cluster.discover(query, tracker.certificate))
        verifies = self._counter(cluster, "crypto.ops.cert_verify")
        sim.run_process(cluster.discover(query, tracker.certificate))
        assert self._counter(cluster, "crypto.ops.cert_verify") == verifies

    def test_new_advertisement_invalidates(self, setup):
        sim, ca, cluster, entity, tracker = setup
        create_topic(sim, cluster, entity)
        query = DiscoveryQuery.for_entity("svc-1")
        sim.run_process(cluster.discover(query, tracker.certificate))
        create_topic(sim, cluster, entity)  # store version bumps
        sim.run_process(cluster.discover(query, tracker.certificate))
        assert self._counter(cluster, "tdn.query.cache.hit") == 0
        assert self._counter(cluster, "tdn.query.cache.miss") == 2

    def test_expired_topic_not_served_from_cache(self, setup):
        sim, ca, cluster, entity, tracker = setup
        create_topic(sim, cluster, entity, lifetime=50.0)
        query = DiscoveryQuery.for_entity("svc-1")
        found = sim.run_process(cluster.discover(query, tracker.certificate))
        assert found is not None
        sim.run(until=200.0)
        stale = sim.run_process(cluster.discover(query, tracker.certificate))
        assert stale is None

    def test_negative_answers_never_cached(self, setup):
        sim, ca, cluster, entity, tracker = setup
        query = DiscoveryQuery.for_entity("ghost")
        sim.run_process(cluster.discover(query, tracker.certificate))
        sim.run_process(cluster.discover(query, tracker.certificate))
        assert self._counter(cluster, "tdn.query.cache.hit") == 0

    def test_recover_restarts_cold(self, setup):
        sim, ca, cluster, entity, tracker = setup
        create_topic(sim, cluster, entity)
        query = DiscoveryQuery.for_entity("svc-1")
        node = cluster.nodes[0]
        sim.run_process(cluster.discover(query, tracker.certificate))
        assert len(node.query_cache) == 1
        node.fail()
        node.recover()
        assert len(node.query_cache) == 0

    def test_discover_all_uses_cache(self, setup):
        sim, ca, cluster, entity, tracker = setup
        create_topic(sim, cluster, entity)
        query = DiscoveryQuery.for_entity("svc-1")
        first = sim.run_process(cluster.discover_all(query, tracker.certificate))
        second = sim.run_process(cluster.discover_all(query, tracker.certificate))
        assert [ad.trace_topic for ad in first] == [ad.trace_topic for ad in second]
        assert second is not first  # hits hand out a fresh list, not the cached one
        assert self._counter(cluster, "tdn.query.cache.hit") == 1
