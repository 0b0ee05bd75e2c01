"""The broker-network fabric: machines, brokers, links, and routing.

One :class:`BrokerNetwork` owns a simulation's topology.  It creates
machines (with independent RNG streams, calibrated crypto cost models and
NTP-skewed clocks), brokers on those machines, inter-broker links with a
chosen transport profile, and client connections.  Subscription interest is
flooded through the fabric's control plane: every broker learns which peers
have subscribers for which patterns (counted, but charged no data-plane
latency — brokers exchange subscription state continuously in the real
system, off the critical path of trace routing).
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Iterable

from repro.crypto.costmodel import PAPER_CALIBRATION, CryptoCostModel
from repro.errors import ConfigurationError, RoutingError
from repro.messaging.broker import Broker
from repro.messaging.client import BrokerClient
from repro.messaging.federation import FederatedInterestPlane, FederationConfig
from repro.messaging.routing import all_next_hops
from repro.sim.engine import Simulator
from repro.sim.machine import Machine
from repro.sim.monitor import Monitor
from repro.sim.random import RandomStreams
from repro.transport.base import TransportProfile
from repro.transport.link import Link
from repro.transport.tcp import TCP_CLUSTER
from repro.util.clock import NTPSkewModel, SkewedClock


class BrokerNetwork:
    """Builder and registry for one simulated deployment."""

    def __init__(
        self,
        sim: Simulator,
        seed: int = 0,
        monitor: Monitor | None = None,
        default_profile: TransportProfile = TCP_CLUSTER,
        ntp_model: NTPSkewModel | None = None,
        codec: str = "json",
        federation: FederationConfig | bool | None = None,
    ) -> None:
        # Deferred import: repro.wire imports the messaging package back.
        from repro.wire.codec import SizeMemo

        self.sim = sim
        self.streams = RandomStreams(seed)
        self.monitor = monitor or Monitor()
        self.default_profile = default_profile
        self._ntp_model = ntp_model
        #: Message ids, drawn where a message enters this network (a
        #: client publish or a broker's own publication).  Their digit
        #: width rides the wire, so a run's sizes depend on this counter
        #: alone, never on what else ran in the process.
        self.message_ids = itertools.count(1)
        #: The wire codec, named by ``codec``, and the encoded sizes under
        #: it, keyed by message id: shared by every link here.
        self.size_memo = SizeMemo(self.monitor.metrics, codec)

        #: Summarized-interest control plane (``repro.messaging.federation``);
        #: ``None`` keeps the verbatim per-pattern flooding path.
        self.federation: FederatedInterestPlane | None = None
        if federation:
            config = federation if isinstance(federation, FederationConfig) else None
            self.federation = FederatedInterestPlane(
                monitor=self.monitor, config=config
            )

        self._machines: dict[str, Machine] = {}
        self._brokers: dict[str, Broker] = {}
        self._adjacency: dict[str, set[str]] = {}
        self._clients: dict[str, BrokerClient] = {}
        # edges severed by partition_link, keyed as sorted pairs; kept
        # separate from _adjacency so a crash/recover cycle of either
        # endpoint cannot silently heal a partition (heal_link clears it)
        self._partitioned: set[tuple[str, str]] = set()
        # fabric view of announced interest: pattern -> interested brokers.
        # Kept so brokers that join after a subscription was flooded still
        # learn it (replayed in add_broker), and pruned on retraction.
        # The federated plane keeps its own aggregate state instead.
        self._interest: dict[str, set[str]] = {}

    # ---------------------------------------------------------------- machines

    def machine(self, name: str, cpu_capacity: int | None = None) -> Machine:
        """Get-or-create the machine called ``name``.

        ``cpu_capacity`` applies only on creation (default 4, the paper's
        Xeon hosts); pass a lower value to model a more contended host.
        """
        if name not in self._machines:
            cost_model = CryptoCostModel(
                calibration=PAPER_CALIBRATION,
                seed=self.streams.derive_seed(f"cost.{name}"),
                metrics=self.monitor.metrics,
            )
            if self._ntp_model is not None:
                clock = self._ntp_model.clock_for_node(self.sim.clock)
            else:
                clock = SkewedClock(self.sim.clock, 0.0)
            kwargs = {}
            if cpu_capacity is not None:
                kwargs["cpu_capacity"] = cpu_capacity
            self._machines[name] = Machine(
                sim=self.sim,
                name=name,
                cost_model=cost_model,
                rng=self.streams.stream(f"machine.{name}"),
                clock=clock,
                **kwargs,
            )
        return self._machines[name]

    # ----------------------------------------------------------------- brokers

    def add_broker(self, broker_id: str, machine_name: str | None = None) -> Broker:
        """Create a broker; by default it gets its own machine."""
        if broker_id in self._brokers:
            raise ConfigurationError(f"duplicate broker id {broker_id!r}")
        machine = self.machine(machine_name or f"machine-{broker_id}")
        broker = Broker(
            sim=self.sim,
            broker_id=broker_id,
            machine=machine,
            message_ids=self.message_ids,
            monitor=self.monitor,
        )
        self._brokers[broker_id] = broker
        self._adjacency[broker_id] = set()
        if self.federation is not None:
            # late joiners receive one summary per established peer
            # (fed.summary.replays), not a replay of every pattern
            self.federation.register_broker(broker_id)
            broker.set_interest_announcer(self.federation.announce, self.federation.retract)
            broker.set_federation(self.federation)
        else:
            broker.set_interest_announcer(self._announce_interest, self._retract_interest)
            # replay interest flooded before this broker existed, so a late
            # joiner routes toward established subscribers like everyone else
            for pattern in sorted(self._interest):
                for owner in sorted(self._interest[pattern]):
                    broker.note_remote_interest(pattern, owner)
        self._recompute_routes()
        return broker

    def broker(self, broker_id: str) -> Broker:
        """The broker called ``broker_id``; RoutingError if unknown."""
        try:
            return self._brokers[broker_id]
        except KeyError:
            raise RoutingError(f"unknown broker {broker_id!r}") from None

    def brokers(self) -> list[Broker]:
        """Every broker in the fabric, sorted by id."""
        return [self._brokers[k] for k in sorted(self._brokers)]

    def connect_brokers(
        self, a: str, b: str, profile: TransportProfile | None = None
    ) -> None:
        """Create a duplex link between two brokers and refresh routing."""
        if a == b:
            raise ConfigurationError("cannot link a broker to itself")
        broker_a, broker_b = self.broker(a), self.broker(b)
        prof = profile or self.default_profile
        lo, hi = min(a, b), max(a, b)
        # independent jitter streams per direction: draws on a->b can
        # never perturb the latencies sampled on b->a
        rng_ab = self.streams.stream(f"link.{lo}.{hi}:{a}->{b}")
        rng_ba = self.streams.stream(f"link.{lo}.{hi}:{b}->{a}")

        link_ab = Link(
            self.sim, prof,
            receiver=partial(broker_b.receive_from_neighbor, a),
            rng=rng_ab, name=f"{a}->{b}", monitor=self.monitor, memo=self.size_memo,
        )
        link_ba = Link(
            self.sim, prof,
            receiver=partial(broker_a.receive_from_neighbor, b),
            rng=rng_ba, name=f"{b}->{a}", monitor=self.monitor, memo=self.size_memo,
        )
        broker_a.attach_neighbor(b, link_ab)
        broker_b.attach_neighbor(a, link_ba)
        self._adjacency[a].add(b)
        self._adjacency[b].add(a)
        self._recompute_routes()

    def _recompute_routes(self) -> None:
        tables = all_next_hops(self._adjacency)
        for broker_id, table in tables.items():
            self._brokers[broker_id].set_routing_table(table)

    # ------------------------------------------------------------------ clients

    def add_client(
        self, client_id: str, machine_name: str | None = None
    ) -> BrokerClient:
        """Create a client endpoint (unconnected) on the named machine."""
        if client_id in self._clients:
            raise ConfigurationError(f"duplicate client id {client_id!r}")
        machine = self.machine(machine_name or f"machine-{client_id}")
        client = BrokerClient(
            sim=self.sim,
            client_id=client_id,
            machine=machine,
            message_ids=self.message_ids,
            monitor=self.monitor,
        )
        self._clients[client_id] = client
        return client

    def client(self, client_id: str) -> BrokerClient:
        """The client endpoint called ``client_id``."""
        return self._clients[client_id]

    def remove_client(self, client_id: str) -> None:
        """Forget a client so its id can be reused (e.g. after migration).

        Beyond disconnecting, this sweeps every broker for leftover
        subscriptions of the departing client and retracts whatever lost
        its last subscriber.  ``disconnect`` alone only purges the
        currently attached broker — a client that hopped brokers, or
        whose broker was failed at detach time, could otherwise leave
        stale fabric-wide interest that attracts traffic forever.
        """
        client = self._clients.pop(client_id, None)
        if client is not None and client.connected:
            client.disconnect()
        for broker_id in sorted(self._brokers):
            self._brokers[broker_id].purge_client_subscriptions(client_id)

    def connect_client(
        self,
        client: BrokerClient | str,
        broker_id: str,
        profile: TransportProfile | None = None,
    ) -> BrokerClient:
        """Wire a client to a broker with a duplex link."""
        if isinstance(client, str):
            client = self._clients[client]
        broker = self.broker(broker_id)
        prof = profile or self.default_profile
        rng = self.streams.stream(f"clientlink.{client.client_id}")

        to_broker = Link(
            self.sim, prof,
            receiver=lambda msg, c=client.client_id: broker.receive_from_client(c, msg),
            rng=rng, name=f"{client.client_id}->{broker_id}", monitor=self.monitor,
            memo=self.size_memo,
        )
        to_client = Link(
            self.sim, prof,
            receiver=client._receive,
            rng=rng, name=f"{broker_id}->{client.client_id}", monitor=self.monitor,
            memo=self.size_memo,
        )
        broker.attach_client(client.client_id, to_client)
        client.attach(broker, to_broker)
        return client

    # ------------------------------------------------------------ failures

    def neighbors_of(self, broker_id: str) -> tuple[str, ...]:
        """Snapshot of a broker's current adjacency (sorted).

        Fault controllers capture this *before* ``fail_broker`` wipes the
        adjacency, so the same neighbor set can be handed back to
        ``recover_broker`` when the fault is reverted.
        """
        self.broker(broker_id)
        return tuple(sorted(self._adjacency[broker_id]))

    def partition_link(self, a: str, b: str) -> None:
        """Sever the ``a``–``b`` adjacency without failing either broker.

        The physical :class:`Link` objects survive (in-flight payloads
        still arrive) but routing stops using the edge, so traffic steers
        around it or becomes unroutable — a network partition, not a crash.
        """
        broker_a, broker_b = self.broker(a), self.broker(b)
        if b not in broker_a.neighbor_links or a not in broker_b.neighbor_links:
            raise RoutingError(f"no link between {a!r} and {b!r}")
        self._partitioned.add((min(a, b), max(a, b)))
        self._adjacency[a].discard(b)
        self._adjacency[b].discard(a)
        self._recompute_routes()

    def heal_link(self, a: str, b: str) -> None:
        """Restore an adjacency removed by :meth:`partition_link`.

        A failed endpoint stays out of the routing graph; healing a link
        to a crashed broker only takes effect once ``recover_broker``
        brings it back.
        """
        broker_a, broker_b = self.broker(a), self.broker(b)
        if b not in broker_a.neighbor_links or a not in broker_b.neighbor_links:
            raise RoutingError(f"no link between {a!r} and {b!r}")
        self._partitioned.discard((min(a, b), max(a, b)))
        if not broker_a.failed and not broker_b.failed:
            self._adjacency[a].add(b)
            self._adjacency[b].add(a)
        self._recompute_routes()

    def links_of(self, broker_id: str) -> tuple[Link, ...]:
        """Every directed :class:`Link` touching a broker, both directions.

        Covers inter-broker links (outgoing and the peer's return link)
        and client connections; the fault controller installs loss/delay
        disruptions across this set to degrade a broker's whole vicinity.
        """
        broker = self.broker(broker_id)
        links: list[Link] = []
        for neighbor_id in sorted(broker.neighbor_links):
            links.append(broker.neighbor_links[neighbor_id])
            peer = self._brokers.get(neighbor_id)
            if peer is not None and broker_id in peer.neighbor_links:
                links.append(peer.neighbor_links[broker_id])
        for client_id in broker.client_ids:
            links.append(broker._client_links[client_id])
            client = self._clients.get(client_id)
            if (
                client is not None
                and client.connected
                and client.broker is broker
                and client._link_to_broker is not None
            ):
                links.append(client._link_to_broker)
        return tuple(links)

    def fail_broker(self, broker_id: str) -> None:
        """Take a broker down: it drops traffic and routing steers around it.

        Clients connected to it receive nothing further; they are expected
        to discover a live broker and re-register (section 3.2 / Ref [3]).
        """
        broker = self.broker(broker_id)
        broker.failed = True
        for neighbor in list(self._adjacency[broker_id]):
            self._adjacency[neighbor].discard(broker_id)
        self._adjacency[broker_id] = set()
        self._recompute_routes()

    def recover_broker(self, broker_id: str, neighbors: Iterable[str] = ()) -> None:
        """Bring a failed broker back, reattaching the given neighbor links.

        Edges severed by :meth:`partition_link` stay severed even when
        they appear in ``neighbors``: a partition is an independent fault
        with its own lifetime, and a crash/recover cycle of one endpoint
        must not silently heal it (only :meth:`heal_link` does).  Links
        to still-failed neighbors are likewise skipped — they return when
        *that* broker recovers.
        """
        broker = self.broker(broker_id)
        broker.failed = False
        for neighbor in neighbors:
            # links still exist physically; just restore the adjacency
            if neighbor not in broker.neighbor_links:
                continue
            if (min(broker_id, neighbor), max(broker_id, neighbor)) in self._partitioned:
                continue
            peer = self._brokers.get(neighbor)
            if peer is not None and peer.failed:
                continue
            self._adjacency[broker_id].add(neighbor)
            self._adjacency[neighbor].add(broker_id)
        self._recompute_routes()

    # ------------------------------------------------------------ control plane

    # A federated network hands each broker the plane's own ``announce`` /
    # ``retract`` instead (add_broker): they only update the owner's
    # interest summary, and the re-broadcast is batched into the next
    # routing epoch by FederatedInterestPlane.flush, which is where
    # ``control.floods`` is counted.

    def _announce_interest(self, pattern: str, broker_id: str) -> None:
        """Flood subscription interest to every broker (verbatim plane):
        one ``control.floods`` message per pattern."""
        self._interest.setdefault(pattern, set()).add(broker_id)
        for other in self._brokers.values():
            other.note_remote_interest(pattern, broker_id)
        self.monitor.increment("control.floods")

    def _retract_interest(self, pattern: str, broker_id: str) -> bool:
        """Flood an interest retraction (last subscriber gone).

        Returns whether ``broker_id`` had announced ``pattern``; a pattern
        it never announced (a suppressed one) floods nothing.
        """
        owners = self._interest.get(pattern)
        if owners is None or broker_id not in owners:
            return False
        owners.discard(broker_id)
        if not owners:
            del self._interest[pattern]
        for other in self._brokers.values():
            other.drop_remote_interest(pattern, broker_id)
        self.monitor.metrics.counter("broker.interest.retraction_floods").inc()
        return True
