"""One-call wiring of a complete tracing deployment.

Assembles the full stack the paper describes: a certificate authority, a
replicated TDN cluster, a broker network with authorization guards
installed on every broker, a broker discovery service, and per-broker
:class:`~repro.tracing.broker_ops.TraceManager` instances.  Tests,
benchmarks and examples all build on this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.auth.cache import TokenVerificationCache
from repro.auth.credentials import EntityCredentials
from repro.auth.verification import TokenVerifier, TraceAuthorizationGuard
from repro.crypto.certificates import CertificateAuthority
from repro.crypto.rsa import RSAPublicKey
from repro.errors import ConfigurationError
from repro.messaging.broker_network import BrokerNetwork
from repro.messaging.discovery import BrokerDiscoveryService
from repro.messaging.federation import FederationConfig
from repro.obs import EventJournal, MetricsRegistry
from repro.sim.engine import Simulator
from repro.sim.monitor import Monitor
from repro.tdn.node import TDNCluster
from repro.tdn.query import DiscoveryRestrictions
from repro.tracing.broker_ops import TraceManager
from repro.tracing.entity import TracedEntity
from repro.tracing.failure import AdaptivePingPolicy
from repro.tracing.interest import ALL_CATEGORIES, InterestCategory
from repro.tracing.tracker import Tracker
from repro.transport.base import TransportProfile
from repro.transport.tcp import TCP_CLUSTER
from repro.util.clock import NTPSkewModel
from repro.util.identifiers import EntityId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analytics import AnalyticsStore


@dataclass
class Deployment:
    """A fully wired simulated deployment."""

    sim: Simulator
    monitor: Monitor
    network: BrokerNetwork
    ca: CertificateAuthority
    tdn: TDNCluster
    discovery: BrokerDiscoveryService
    managers: dict[str, TraceManager]
    token_verifier: TokenVerifier
    default_profile: TransportProfile
    entities: dict[str, TracedEntity] = field(default_factory=dict)
    trackers: dict[str, Tracker] = field(default_factory=dict)
    #: per-broker verifiers backing each broker's publish guard; their
    #: verification caches are per-process state, cleared on restart
    broker_verifiers: dict[str, TokenVerifier] = field(default_factory=dict)
    #: optional persistent analytics store (``attach_analytics``)
    analytics: "AnalyticsStore | None" = field(default=None)

    # ------------------------------------------------------------- principals

    def add_traced_entity(
        self,
        entity_id: str,
        machine_name: str | None = None,
        restrictions: DiscoveryRestrictions | None = None,
        secured: bool = False,
        use_symmetric_channel: bool = False,
    ) -> TracedEntity:
        """Create a traced entity with CA-issued credentials."""
        machine = self.network.machine(machine_name or f"machine-{entity_id}")
        credentials = EntityCredentials.issue(entity_id, self.ca, machine.rng)
        entity = TracedEntity(
            sim=self.sim,
            entity_id=EntityId(entity_id),
            network=self.network,
            machine=machine,
            credentials=credentials,
            tdn=self.tdn,
            monitor=self.monitor,
            restrictions=restrictions,
            secured=secured,
            use_symmetric_channel=use_symmetric_channel,
        )
        self.entities[entity_id] = entity
        return entity

    def add_tracker(
        self,
        tracker_id: str,
        machine_name: str | None = None,
        interests: frozenset[InterestCategory] = ALL_CATEGORIES,
        proactive_interest: bool = True,
        verify_traces: bool = True,
    ) -> Tracker:
        """Create a tracker with CA-issued credentials."""
        machine = self.network.machine(machine_name or f"machine-{tracker_id}")
        credentials = EntityCredentials.issue(tracker_id, self.ca, machine.rng)
        tracker = Tracker(
            sim=self.sim,
            tracker_id=tracker_id,
            network=self.network,
            machine=machine,
            credentials=credentials,
            tdn=self.tdn,
            token_verifier=self.token_verifier,
            monitor=self.monitor,
            interests=interests,
            proactive_interest=proactive_interest,
            verify_traces=verify_traces,
        )
        self.trackers[tracker_id] = tracker
        if self.analytics is not None:
            from repro.analytics import TraceIngestor

            TraceIngestor(self.analytics, tracker)
        return tracker

    def manager_of(self, broker_id: str) -> TraceManager:
        return self.managers[broker_id]

    def restart_broker(self, broker_id: str, neighbors: Iterable[str] = ()) -> None:
        """Bring a failed broker back and reset its tracing incarnation.

        Restores the fabric adjacency (``BrokerNetwork.recover_broker``),
        clears the broker's per-session ping windows
        (``TraceManager.handle_broker_restart``) so pre-crash state cannot
        poison post-restart failure detection, and empties the broker's
        token-verification cache — a restarted broker process starts cold
        and must re-verify every token it sees.
        """
        self.network.recover_broker(broker_id, neighbors)
        manager = self.managers.get(broker_id)
        if manager is not None:
            manager.handle_broker_restart()
        verifier = self.broker_verifiers.get(broker_id)
        if verifier is not None and verifier.cache is not None:
            verifier.cache.clear()

    # ---------------------------------------------------------- observability

    @property
    def metrics(self) -> MetricsRegistry:
        """The deployment-wide instrument registry (repro.obs)."""
        return self.monitor.metrics

    @property
    def journal(self) -> EventJournal:
        """The deployment-wide structured event journal (repro.obs)."""
        return self.monitor.journal

    def snapshot(self) -> dict:
        """One JSON-serializable view of every instrument's current state."""
        return self.monitor.metrics.snapshot()

    def attach_analytics(
        self, store: "AnalyticsStore | None" = None
    ) -> "AnalyticsStore":
        """Attach a persistent analytics store fed by every tracker.

        Creates an in-memory :class:`~repro.analytics.AnalyticsStore`
        unless one is given, binds it to the deployment's metrics
        registry (so ``analytics.*`` instruments count ingestion), and
        hooks the trace feed on every current *and future* tracker.
        Appends draw no randomness and consume no virtual time, so an
        instrumented run stays bit-identical to a bare one.
        """
        from repro.analytics import AnalyticsStore, TraceIngestor

        if store is None:
            store = AnalyticsStore()
        store.bind_metrics(self.metrics)
        self.analytics = store
        for tracker in self.trackers.values():
            TraceIngestor(store, tracker)
        return store

    def finalize_analytics(self, **meta) -> "AnalyticsStore":
        """Copy the run's journal into the attached store and stamp meta.

        Call once after the simulation horizon: the journal copy
        preserves every evidence kind the audit gate checks, and
        ``now_ms`` (defaulting to the simulator clock) closes open
        availability intervals in later reports.
        """
        from repro.analytics import ingest_journal

        if self.analytics is None:
            raise ConfigurationError(
                "finalize_analytics() needs attach_analytics() first"
            )
        ingest_journal(self.analytics, self.journal)
        self.analytics.set_meta(now_ms=self.sim.now, **meta)
        return self.analytics


def tdn_public_keys(tdn: TDNCluster) -> dict[str, RSAPublicKey]:
    """The trusted TDN key map brokers and trackers verify against."""
    return {node.name: node._keys.public for node in tdn.nodes}


def build_deployment(
    broker_ids: Iterable[str] = ("b1", "b2"),
    seed: int = 0,
    profile: TransportProfile = TCP_CLUSTER,
    ntp_model: NTPSkewModel | None = None,
    ping_policy: AdaptivePingPolicy | None = None,
    gauge_interval_ms: float = 60_000.0,
    extra_links: Iterable[tuple[str, str]] = (),
    codec: str = "json",
    federation: FederationConfig | bool | None = None,
) -> Deployment:
    """Build a complete deployment.

    The brokers form a chain in ``broker_ids`` order (the paper's Figure 1
    line of brokers); ``extra_links`` adds further broker links.  Two TDN
    nodes serve discovery, and token checks allow 100 ms of clock skew.

    ``codec`` names the wire codec every link sizes payloads with
    (``repro.wire``); every committed seed snapshot encodes the default,
    ``json``.

    ``federation`` switches the broker fabric's control plane from
    verbatim per-pattern interest flooding to summarized interest
    exchange (:mod:`repro.messaging.federation`): pass ``True`` for the
    default :class:`FederationConfig` or a config instance to tune the
    hot-set / digest parameters.  Off by default — the committed seed
    scenarios pin the verbatim plane — and bit-identical to it anyway
    while every broker's pattern count stays within the hot-set limit.
    """
    sim = Simulator()
    monitor = Monitor()
    network = BrokerNetwork(
        sim,
        seed=seed,
        monitor=monitor,
        default_profile=profile,
        ntp_model=ntp_model,
        codec=codec,
        federation=federation,
    )

    ids = list(broker_ids)
    for broker_id in ids:
        network.add_broker(broker_id)
    for left, right in zip(ids, ids[1:], strict=False):
        network.connect_brokers(left, right)
    for left, right in extra_links:
        network.connect_brokers(left, right)

    ca = CertificateAuthority("repro-root-ca", network.streams.stream("ca"))

    tdn_machines = [network.machine(f"machine-tdn-{i}") for i in range(2)]
    tdn = TDNCluster(
        sim, ca, tdn_machines, monitor=monitor,
        uuid_seed=network.streams.derive_seed("tdn-uuids"),
    )

    trusted_keys = tdn_public_keys(tdn)

    def _make_verifier() -> TokenVerifier:
        return TokenVerifier(
            trusted_keys, cache=TokenVerificationCache(metrics=monitor.metrics)
        )

    # trackers share this verifier; each broker's guard gets its own so a
    # broker restart can cold-start that broker's cache independently
    verifier = _make_verifier()
    broker_verifiers: dict[str, TokenVerifier] = {}

    discovery = BrokerDiscoveryService(sim, monitor=monitor)
    managers: dict[str, TraceManager] = {}
    for broker_id in ids:
        broker = network.broker(broker_id)
        broker_verifiers[broker_id] = _make_verifier()
        broker.publish_guards.append(
            TraceAuthorizationGuard(broker_verifiers[broker_id])
        )
        discovery.register_broker(broker)
        managers[broker_id] = TraceManager(
            broker=broker,
            ca=ca,
            tdn_public_keys=trusted_keys,
            ping_policy=ping_policy,
            gauge_interval_ms=gauge_interval_ms,
        )

    return Deployment(
        sim=sim,
        monitor=monitor,
        network=network,
        ca=ca,
        tdn=tdn,
        discovery=discovery,
        managers=managers,
        token_verifier=verifier,
        default_profile=profile,
        broker_verifiers=broker_verifiers,
    )
