"""TDN nodes and the replicated TDN cluster.

"Since a given topic advertisement will be stored at multiple TDN nodes,
this scheme sustains the loss of TDN nodes due to failures or downtimes"
(section 2.2).  The cluster shares one UUID generator stream so topic
uniqueness holds across nodes, replicates every advertisement to all live
peers, and routes discovery around failed nodes.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Generator

from repro.crypto.certificates import CertificateAuthority
from repro.crypto.costmodel import CryptoOp
from repro.crypto.keys import KeyPair
from repro.crypto.signing import SignedEnvelope, sign_payload, verify_signed
from repro.errors import (
    CertificateError,
    DiscoveryError,
    RegistrationError,
    SignatureError,
)
from repro.sim.engine import Event, Simulator
from repro.sim.machine import Machine
from repro.sim.monitor import Monitor
from repro.tdn.advertisement import (
    AdvertisedTopic,
    TopicAdvertisement,
    TopicCreationRequest,
    TopicLifetime,
    TopicRenewal,
)
from repro.tdn.query import DiscoveryQuery
from repro.tdn.registry import AdvertisementStore
from repro.util.identifiers import UUIDGenerator

#: Modeled service time of one TDN request (creation, renewal, discovery).
SERVICE_DELAY_MS = 3.0


class TDNNode:
    """One Topic Discovery Node."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        machine: Machine,
        trust_anchor: CertificateAuthority,
        uuid_generator: UUIDGenerator,
        monitor: Monitor,
    ) -> None:
        self.sim = sim
        self.name = name
        self.machine = machine
        self.trust_anchor = trust_anchor
        self.monitor = monitor
        self._uuids = uuid_generator
        self._keys = KeyPair.generate(machine.rng)
        self.certificate = trust_anchor.issue(name, self._keys.public)
        self.store = AdvertisementStore()
        self.failed = False
        self._peers: list["TDNNode"] = []
        self.replication_delay_ms = 2.0

    def set_peers(self, peers: list["TDNNode"]) -> None:
        self._peers = [p for p in peers if p is not self]

    # ------------------------------------------------------------ failure model

    def fail(self) -> None:
        """Take this node down; it drops all requests until recovery."""
        self.failed = True

    def recover(self) -> None:
        """Bring the node back."""
        self.failed = False

    # ------------------------------------------------------------ topic creation

    def create_topic(
        self, request: TopicCreationRequest, signature: SignedEnvelope
    ) -> Generator[Event, None, TopicAdvertisement]:
        """Mint a trace topic for a verified creation request.

        Process body.  Verifies the requester's credentials against the
        trust anchor and the request signature against the credential's
        public key; on success generates the UUID *at the TDN* (so no
        entity can claim another's topic), signs the advertisement, stores
        it, and replicates to live peers.
        """
        if self.failed:
            raise DiscoveryError(f"TDN {self.name!r} is down")
        yield self.sim.timeout(SERVICE_DELAY_MS)
        now = self.machine.now()

        try:
            self.trust_anchor.verify(request.credentials, now_ms=now)
        except CertificateError as exc:
            raise RegistrationError(f"bad credentials: {exc}") from exc
        yield from self.machine.charge(CryptoOp.CERT_VERIFY)

        try:
            signed = verify_signed(
                signature, request.to_dict(), request.credentials.public_key
            )
        except SignatureError as exc:
            raise RegistrationError(f"request signature invalid: {exc}") from exc
        if not signed:
            raise RegistrationError("signature covers a different request")
        yield from self.machine.charge(CryptoOp.TRACE_VERIFY)

        advertisement = yield from self._publish(
            AdvertisedTopic(
                trace_topic=self._uuids.next(),
                descriptor=request.descriptor,
                owner_subject=request.credentials.subject,
                owner_public_key=request.credentials.public_key,
                restrictions=request.restrictions,
                lifetime=TopicLifetime(created_ms=now, duration_ms=request.lifetime_ms),
                issuing_tdn=self.name,
            )
        )
        self.monitor.metrics.counter("tdn.advertisements.created").inc()
        self.monitor.metrics.gauge("tdn.advertisements.stored").set(
            float(len(self.store))
        )
        return advertisement

    def renew_topic(
        self, renewal: TopicRenewal, signature: SignedEnvelope
    ) -> Generator[Event, None, TopicAdvertisement]:
        """Extend a topic's lifetime before it expires.

        Only the topic owner can renew: the renewal signature must verify
        against the stored advertisement's owner key, and the advertisement
        must still be live.  Returns the re-signed advertisement, which
        also replaces the stored copy cluster-wide.
        """
        if self.failed:
            raise DiscoveryError(f"TDN {self.name!r} is down")
        if renewal.additional_lifetime_ms <= 0:
            raise RegistrationError("renewal must extend the lifetime")
        yield self.sim.timeout(SERVICE_DELAY_MS)
        now = self.machine.now()

        stored = self.store.get(renewal.trace_topic, now)
        if stored is None:
            raise RegistrationError("topic unknown or already expired")

        fields = stored.fields
        yield from self.machine.charge(CryptoOp.TRACE_VERIFY)
        try:
            signed = verify_signed(signature, renewal.to_dict(), fields.owner_public_key)
        except SignatureError as exc:
            raise RegistrationError(f"renewal not signed by owner: {exc}") from exc
        if not signed:
            raise RegistrationError("renewal signature covers different fields")
        if renewal.current_duration_ms != fields.lifetime.duration_ms:
            raise RegistrationError(
                f"stale renewal: it extends a {renewal.current_duration_ms} ms lifetime, "
                f"the topic's is {fields.lifetime.duration_ms} ms"
            )

        lifetime = TopicLifetime(
            created_ms=fields.lifetime.created_ms,
            duration_ms=fields.lifetime.duration_ms + renewal.additional_lifetime_ms,
        )
        renewed = yield from self._publish(
            replace(fields, lifetime=lifetime, issuing_tdn=self.name)
        )
        self.monitor.metrics.counter("tdn.topics_renewed").inc()
        return renewed

    def _publish(
        self, fields: AdvertisedTopic
    ) -> Generator[Event, None, TopicAdvertisement]:
        """Sign an advertisement's fields, store it and replicate it cluster-wide."""
        signature = sign_payload(fields.to_dict(), self._keys.private)
        yield from self.machine.charge(CryptoOp.TRACE_SIGN)
        advertisement = TopicAdvertisement(fields, signature)
        self.store.put(advertisement)
        self._replicate(advertisement)
        return advertisement

    def _replicate(self, advertisement: TopicAdvertisement) -> None:
        for peer in self._peers:
            if peer.failed:
                continue
            self.sim.call_later(
                self.replication_delay_ms,
                lambda p=peer: p.store.put(advertisement),
            )
            self.monitor.metrics.counter("tdn.replications").inc()

    # ---------------------------------------------------------------- discovery

    def discover(
        self, query: DiscoveryQuery, credentials
    ) -> Generator[Event, None, TopicAdvertisement | None]:
        """Answer a discovery query, or return None.

        Unauthorized requests get *no response* — the paper's TDN simply
        ignores them, so the requester cannot distinguish "not authorized"
        from "no such topic".
        """
        if self.failed:
            raise DiscoveryError(f"TDN {self.name!r} is down")
        metrics = self.monitor.metrics
        metrics.counter("tdn.queries").inc()
        with metrics.timer("tdn.query.latency_ms", self.sim.clock):
            yield self.sim.timeout(SERVICE_DELAY_MS)
            now = self.machine.now()
            candidates = self.store.find_matching(query, now)
            for advertisement in candidates:
                yield from self.machine.charge(CryptoOp.CERT_VERIFY)
                if advertisement.fields.restrictions.permits(
                    credentials, self.trust_anchor, now
                ):
                    metrics.counter("tdn.queries.answered").inc()
                    return advertisement
            metrics.counter("tdn.queries.ignored").inc()
            return None

    def discover_all(
        self, query: DiscoveryQuery, credentials
    ) -> Generator[Event, None, list[TopicAdvertisement]]:
        """Answer a (possibly wildcard) query with every permitted topic.

        Topics whose restrictions the requester does not satisfy are
        silently omitted — the requester cannot tell filtered from
        nonexistent, preserving the single-topic semantics.
        """
        if self.failed:
            raise DiscoveryError(f"TDN {self.name!r} is down")
        metrics = self.monitor.metrics
        metrics.counter("tdn.queries").inc()
        with metrics.timer("tdn.query.latency_ms", self.sim.clock):
            yield self.sim.timeout(SERVICE_DELAY_MS)
            now = self.machine.now()
            permitted: list[TopicAdvertisement] = []
            seen_descriptors: set[str] = set()
            for advertisement in self.store.find_matching(query, now):
                if advertisement.fields.descriptor in seen_descriptors:
                    continue  # newest advertisement per descriptor wins
                yield from self.machine.charge(CryptoOp.CERT_VERIFY)
                if advertisement.fields.restrictions.permits(
                    credentials, self.trust_anchor, now
                ):
                    permitted.append(advertisement)
                    seen_descriptors.add(advertisement.fields.descriptor)
            if permitted:
                metrics.counter("tdn.queries.answered").inc()
            else:
                metrics.counter("tdn.queries.ignored").inc()
            return permitted


class TDNCluster:
    """The replicated set of TDN nodes."""

    def __init__(
        self,
        sim: Simulator,
        trust_anchor: CertificateAuthority,
        machines: list[Machine],
        monitor: Monitor,
        uuid_seed: int = 0,
    ) -> None:
        if not machines:
            raise DiscoveryError("a TDN cluster needs at least one node")
        self.sim = sim
        self.monitor = monitor
        generator = UUIDGenerator(uuid_seed)
        self.nodes = [
            TDNNode(
                sim=sim,
                name=f"tdn-{i}",
                machine=machine,
                trust_anchor=trust_anchor,
                uuid_generator=generator,
                monitor=monitor,
            )
            for i, machine in enumerate(machines)
        ]
        for node in self.nodes:
            node.set_peers(self.nodes)

    def _live_node(self) -> TDNNode:
        """The first node that is up; DiscoveryError when none is."""
        for node in self.nodes:
            if not node.failed:
                return node
        raise DiscoveryError("all TDN nodes are down")

    def create_topic(
        self, request: TopicCreationRequest, signature: SignedEnvelope
    ) -> Generator[Event, None, TopicAdvertisement]:
        """Create at the first live node (clients fail over automatically)."""
        return (yield from self._live_node().create_topic(request, signature))

    def discover(
        self, query: DiscoveryQuery, credentials
    ) -> Generator[Event, None, TopicAdvertisement | None]:
        """Discover via the first live node."""
        return (yield from self._live_node().discover(query, credentials))

    def discover_all(
        self, query: DiscoveryQuery, credentials
    ) -> Generator[Event, None, list[TopicAdvertisement]]:
        """Wildcard discovery via the first live node."""
        return (yield from self._live_node().discover_all(query, credentials))

    def renew_topic(
        self, renewal: TopicRenewal, signature: SignedEnvelope
    ) -> Generator[Event, None, TopicAdvertisement]:
        """Renew via the first live node."""
        return (yield from self._live_node().renew_topic(renewal, signature))
