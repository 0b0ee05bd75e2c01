"""Tests for TDN nodes and the replicated cluster."""

import pytest

from repro.auth.credentials import EntityCredentials
from repro.crypto.certificates import CertificateAuthority
from repro.errors import DiscoveryError, RegistrationError
from repro.sim.engine import Simulator
from repro.sim.machine import Machine
from repro.sim.monitor import Monitor
from repro.tdn.advertisement import TopicCreationRequest
from repro.tdn.node import TDNCluster
from repro.tdn.query import DiscoveryQuery, DiscoveryRestrictions, trace_descriptor
from repro.util.identifiers import RequestId
from tests.support import free_cost_model, run_process


@pytest.fixture
def setup(rng):
    sim = Simulator()
    ca = CertificateAuthority("ca", rng)
    machines = [
        Machine(sim, f"m{i}", free_cost_model(), rng) for i in range(3)
    ]
    cluster = TDNCluster(sim, ca, machines, Monitor(), uuid_seed=42)
    entity = EntityCredentials.issue("svc-1", ca, rng)
    tracker = EntityCredentials.issue("tracker-1", ca, rng)
    return sim, ca, cluster, entity, tracker


def creation_request(entity, restrictions=None, lifetime=1_000_000.0):
    request = TopicCreationRequest(
        credentials=entity.certificate,
        descriptor=trace_descriptor(entity.subject),
        restrictions=restrictions or DiscoveryRestrictions.open_to_authenticated(),
        lifetime_ms=lifetime,
        request_id=RequestId(1),
    )
    return request, entity.sign(request.to_dict())


class TestTopicCreation:
    def test_creates_signed_advertisement(self, setup):
        sim, ca, cluster, entity, _ = setup
        request, signature = creation_request(entity)
        ad = run_process(sim, cluster.create_topic(request, signature))
        assert ad.fields.owner_subject == "svc-1"
        assert ad.fields.descriptor == trace_descriptor("svc-1")
        node = cluster.nodes[0]
        ad.verify_provenance({node.name: node.certificate.public_key})  # raises if not

    def test_uuid_minted_at_tdn_is_unique(self, setup):
        sim, ca, cluster, entity, _ = setup
        topics = set()
        for i in range(5):
            request, signature = creation_request(entity)
            ad = run_process(sim, cluster.create_topic(request, signature))
            topics.add(ad.fields.trace_topic)
        assert len(topics) == 5

    def test_replicated_to_peers(self, setup):
        sim, ca, cluster, entity, _ = setup
        request, signature = creation_request(entity)
        ad = run_process(sim, cluster.create_topic(request, signature))
        sim.run()  # let replication callbacks fire
        for node in cluster.nodes:
            assert node.store.get(ad.fields.trace_topic, sim.now) is not None

    def test_rejects_bad_signature(self, setup):
        sim, ca, cluster, entity, tracker = setup
        request, _ = creation_request(entity)
        wrong_signature = tracker.sign(request.to_dict())
        with pytest.raises(RegistrationError):
            run_process(sim, cluster.create_topic(request, wrong_signature))

    def test_rejects_signature_over_other_fields(self, setup):
        sim, ca, cluster, entity, _ = setup
        request, _ = creation_request(entity)
        signature = entity.sign({"something": "else"})
        with pytest.raises(RegistrationError):
            run_process(sim, cluster.create_topic(request, signature))

    def test_rejects_untrusted_credentials(self, setup, rng):
        sim, ca, cluster, entity, _ = setup
        rogue_ca = CertificateAuthority("rogue", rng)
        rogue = EntityCredentials.issue("svc-1", rogue_ca, rng)
        request, signature = creation_request(rogue)
        with pytest.raises(RegistrationError):
            run_process(sim, cluster.create_topic(request, signature))


class TestDiscovery:
    def _create(self, sim, cluster, entity, restrictions=None):
        request, signature = creation_request(entity, restrictions)
        ad = run_process(sim, cluster.create_topic(request, signature))
        sim.run()
        return ad

    def test_authorized_discovery(self, setup):
        sim, ca, cluster, entity, tracker = setup
        ad = self._create(sim, cluster, entity)
        found = run_process(sim, 
            cluster.discover(DiscoveryQuery.for_entity("svc-1"), tracker.certificate)
        )
        assert found is not None
        assert found.fields.trace_topic == ad.fields.trace_topic

    def test_unauthorized_gets_silence(self, setup):
        sim, ca, cluster, entity, tracker = setup
        self._create(
            sim, cluster, entity, DiscoveryRestrictions.allow_only("someone-else")
        )
        found = run_process(sim, 
            cluster.discover(DiscoveryQuery.for_entity("svc-1"), tracker.certificate)
        )
        assert found is None  # silently ignored, not an error

    def test_unknown_entity_gets_silence(self, setup):
        sim, ca, cluster, entity, tracker = setup
        found = run_process(sim, 
            cluster.discover(DiscoveryQuery.for_entity("ghost"), tracker.certificate)
        )
        assert found is None

    def test_no_credentials_gets_silence(self, setup):
        sim, ca, cluster, entity, tracker = setup
        self._create(sim, cluster, entity)
        found = run_process(sim, 
            cluster.discover(DiscoveryQuery.for_entity("svc-1"), None)
        )
        assert found is None

    def test_expired_topic_not_discoverable(self, setup):
        sim, ca, cluster, entity, tracker = setup
        request, signature = creation_request(entity, lifetime=50.0)
        run_process(sim, cluster.create_topic(request, signature))
        sim.run(until=200.0)
        found = run_process(sim, 
            cluster.discover(DiscoveryQuery.for_entity("svc-1"), tracker.certificate)
        )
        assert found is None

    # every query runs the store scan and its certificate checks, so an
    # earlier answer never decides a later one
    def _ask(self, sim, cluster, tracker):
        query = DiscoveryQuery.for_entity("svc-1")
        one = run_process(sim, cluster.discover(query, tracker.certificate))
        every = run_process(sim, cluster.discover_all(query, tracker.certificate))
        return one, every

    def test_answered_topic_is_not_discovered_once_expired(self, setup):
        sim, ca, cluster, entity, tracker = setup
        request, signature = creation_request(entity, lifetime=50.0)
        ad = run_process(sim, cluster.create_topic(request, signature))
        one, every = self._ask(sim, cluster, tracker)
        assert one.fields.trace_topic == ad.fields.trace_topic
        assert [found.fields.trace_topic for found in every] == [ad.fields.trace_topic]
        sim.run(until=200.0)
        assert self._ask(sim, cluster, tracker) == (None, [])

    def test_recreated_topic_is_discovered_newest(self, setup):
        sim, ca, cluster, entity, tracker = setup
        first = self._create(sim, cluster, entity)
        assert self._ask(sim, cluster, tracker)[0].fields.trace_topic == first.fields.trace_topic
        second = self._create(sim, cluster, entity)
        one, every = self._ask(sim, cluster, tracker)
        assert one.fields.trace_topic == second.fields.trace_topic
        assert [found.fields.trace_topic for found in every] == [second.fields.trace_topic]

    def test_unanswered_query_is_answered_once_the_topic_exists(self, setup):
        sim, ca, cluster, entity, tracker = setup
        assert self._ask(sim, cluster, tracker) == (None, [])
        ad = self._create(sim, cluster, entity)
        one, every = self._ask(sim, cluster, tracker)
        assert one.fields.trace_topic == ad.fields.trace_topic
        assert [found.fields.trace_topic for found in every] == [ad.fields.trace_topic]


class TestFailureTolerance:
    def test_survives_node_failure(self, setup):
        sim, ca, cluster, entity, tracker = setup
        request, signature = creation_request(entity)
        ad = run_process(sim, cluster.create_topic(request, signature))
        sim.run()
        cluster.nodes[0].fail()
        found = run_process(sim, 
            cluster.discover(DiscoveryQuery.for_entity("svc-1"), tracker.certificate)
        )
        assert found is not None
        assert found.fields.trace_topic == ad.fields.trace_topic

    def test_all_nodes_down_raises(self, setup):
        sim, ca, cluster, entity, tracker = setup
        for node in cluster.nodes:
            node.fail()
        with pytest.raises(DiscoveryError):
            run_process(sim, 
                cluster.discover(DiscoveryQuery.for_entity("x"), tracker.certificate)
            )
        with pytest.raises(DiscoveryError):
            request, signature = creation_request(entity)
            run_process(sim, cluster.create_topic(request, signature))

    def test_recovery(self, setup):
        sim, ca, cluster, entity, tracker = setup
        cluster.nodes[0].fail()
        cluster.nodes[0].recover()
        assert not any(node.failed for node in cluster.nodes)

    def test_creation_fails_over_to_live_node(self, setup):
        sim, ca, cluster, entity, tracker = setup
        cluster.nodes[0].fail()
        request, signature = creation_request(entity)
        ad = run_process(sim, cluster.create_topic(request, signature))
        assert ad.fields.issuing_tdn == "tdn-1"

    def test_replication_skips_failed_nodes(self, setup):
        sim, ca, cluster, entity, _ = setup
        cluster.nodes[2].fail()
        request, signature = creation_request(entity)
        ad = run_process(sim, cluster.create_topic(request, signature))
        sim.run()
        assert cluster.nodes[1].store.get(ad.fields.trace_topic, sim.now) is not None
        assert cluster.nodes[2].store.get(ad.fields.trace_topic, sim.now) is None


class TestReplicationRace:
    def test_discovery_before_replication_completes(self, setup):
        """Replication is asynchronous: a node that fails over *before*
        the replication callback lands will not find the topic yet, and
        will find it afterwards.  Documents the (bounded) inconsistency
        window of the replicated store."""
        sim, ca, cluster, entity, tracker = setup
        request, signature = creation_request(entity)
        # drive the creation process manually, without draining the heap
        proc = sim.process(cluster.create_topic(request, signature))
        while not proc.triggered:
            assert sim.step()
        ad = proc.value
        # at this instant the advertisement is stored at tdn-0 only
        cluster.nodes[0].fail()
        found = run_process(sim, 
            cluster.discover(DiscoveryQuery.for_entity("svc-1"), tracker.certificate)
        )
        # tdn-1 may or may not have the replica yet depending on callback
        # ordering; after the replication delay it definitely does
        sim.run(until=sim.now + cluster.nodes[0].replication_delay_ms + 1.0)
        found_later = run_process(sim, 
            cluster.discover(DiscoveryQuery.for_entity("svc-1"), tracker.certificate)
        )
        assert found_later is not None
        assert found_later.fields.trace_topic == ad.fields.trace_topic
