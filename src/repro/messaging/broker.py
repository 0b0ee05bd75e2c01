"""The broker node: subscription management, enforcement, and routing.

A broker performs the routing function: when it receives a message from a
producer it delivers to interested local consumers and forwards to other
brokers that have interested consumers (section 2).  This implementation
additionally enforces:

* constrained-topic action rules (section 3.1),
* pluggable publish guards — the authorization layer installs a guard that
  discards constrained trace messages lacking a valid authorization token
  (section 4.3),
* denial-of-service defenses: repeated violations terminate communications
  with the offending entity (section 5.2).

Broker-to-broker forwarding wraps the message in a :class:`RoutedFrame`
carrying the explicit destination set, split by next hop at every broker:
deterministic shortest-path multicast with no duplicates or loops.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import replace
from functools import cached_property, partial
from typing import Callable, Generator, Iterator, Protocol

from repro.errors import NotConnectedError, UnauthorizedError
from repro.messaging.constrained import (
    CONSTRAINED_KEYWORD,
    ConstrainedTopic,
    is_constrained,
)
from repro.messaging.matching import SubscriptionIndex, canonical_pattern
from repro.messaging.message import Message, RoutedFrame
# bound here so the wall-clock harness's self-test can check that its span
# recorder also patches names other modules imported (benchmarks/perf/test_perf.py)
from repro.messaging.topics import topic_matches  # noqa: F401
from repro.obs import Counter
from repro.sim.engine import Event, Process, Simulator
from repro.sim.machine import Machine
from repro.sim.monitor import Monitor
from repro.transport.link import Link

#: Violations tolerated before the broker terminates communications.
DEFAULT_VIOLATION_LIMIT = 3

#: Broker per-message processing overhead (queueing, matching, bookkeeping).
DEFAULT_PROCESSING_MS = 2.9

#: Broker CPU cost of handing one message to one local subscriber.
DEFAULT_PER_DELIVERY_MS = 0.09

#: Bucket bounds for the ``broker.fanout`` histogram (deliveries/message).
FANOUT_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

LocalHandler = Callable[[Message], None]


def topic_family(topic: str) -> str:
    """Coarse label for per-topic delivery counters.

    The first topic segment, except for constrained topics where the
    event-type segment is the informative one.
    """
    segments = topic.split("/")
    if segments[0] == CONSTRAINED_KEYWORD and len(segments) > 1:
        return segments[1].lower()
    return segments[0].lower()


class PublishGuard(Protocol):
    """Broker-side admission check run for every routed message.

    Implementations are generator functions so they can charge CPU time for
    verification work.  Returning False discards the message and records a
    violation against its origin.
    """

    def __call__(
        self, broker: "Broker", message: Message, origin: str, from_neighbor: bool
    ) -> Generator[Event, None, bool]: ...


__all__ = [
    "Broker",
    "PublishGuard",
    "topic_family",
]


class Broker:
    """One cooperating router node of the broker network."""

    def __init__(
        self,
        sim: Simulator,
        broker_id: str,
        machine: Machine,
        message_ids: Iterator[int],
        monitor: Monitor | None = None,
        processing_ms: float = DEFAULT_PROCESSING_MS,
        per_delivery_ms: float = DEFAULT_PER_DELIVERY_MS,
        violation_limit: int = DEFAULT_VIOLATION_LIMIT,
    ) -> None:
        self.sim = sim
        self.broker_id = broker_id
        self.machine = machine
        # the network's id counter (BrokerNetwork.message_ids)
        self._message_ids = message_ids
        self.monitor = monitor or Monitor()
        self.metrics = self.monitor.metrics
        self.processing_ms = processing_ms
        self.per_delivery_ms = per_delivery_ms
        self.violation_limit = violation_limit
        # sim process names, one per way a message enters this broker
        self._ingress_name = f"{broker_id}.ingress"
        self._fwd_name = f"{broker_id}.fwd"
        self._selfpub_name = f"{broker_id}.selfpub"

        # fabric wiring (populated by BrokerNetwork)
        self.neighbor_links: dict[str, Link] = {}
        self.routing_table: dict[str, str] = {}
        self._announce: Callable[[str, str], None] | None = None
        # returns whether the pattern had been announced for this broker
        self._retract: Callable[[str, str], bool] | None = None
        # summarized-interest plane; when set, remote routing queries go
        # through peer summaries instead of verbatim remote-interest rows
        self._fed_plane = None

        # subscription state: one index holds client
        # subscriptions, broker-local handlers and remote interest, so
        # every "who matches this topic" query is O(topic depth)
        self._subs = SubscriptionIndex(metrics=self.metrics)

        # client connections: client_id -> outbound link to that client
        self._client_links: dict[str, Link] = {}

        # enforcement
        self.publish_guards: list[PublishGuard] = []
        self._violations: dict[str, int] = defaultdict(int)
        self._blacklist: set[str] = set()

        # failure model: a failed broker drops everything it receives
        self.failed = False

    # Per-hop, per-delivery and per-subscribe instruments: resolved on first
    # use and held as the instrument (docs/OBSERVABILITY.md "Adding an
    # instrument"), never in ``__init__``.

    @cached_property
    def _msgs_ingress(self) -> Counter:
        return self.metrics.counter("broker.msgs.ingress")

    @cached_property
    def _msgs_forwarded_in(self) -> Counter:
        return self.metrics.counter("broker.msgs.forwarded_in")

    @cached_property
    def _msgs_forwarded_out(self) -> Counter:
        return self.metrics.counter("broker.msgs.forwarded_out")

    @cached_property
    def _delivered_broker_local(self) -> Counter:
        return self.metrics.counter("broker.messages.delivered_broker_local")

    @cached_property
    def _delivered_client(self) -> Counter:
        return self.metrics.counter("broker.messages.delivered_client")

    @cached_property
    def _subscriptions_client(self) -> Counter:
        return self.metrics.counter("broker.subscriptions.client")

    @cached_property
    def _subscriptions_broker(self) -> Counter:
        return self.metrics.counter("broker.subscriptions.broker")

    @cached_property
    def _interest_announced(self) -> Counter:
        return self.metrics.counter("broker.interest.announced")

    @cached_property
    def _interest_retracted(self) -> Counter:
        return self.metrics.counter("broker.interest.retracted")

    # ------------------------------------------------------------------ wiring

    def attach_neighbor(self, broker_id: str, link: Link) -> None:
        """Wire the outbound link used to forward frames to a neighbor."""
        self.neighbor_links[broker_id] = link

    def set_routing_table(self, table: dict[str, str]) -> None:
        """Install the next-hop-per-destination table for this broker."""
        self.routing_table = dict(table)

    def set_interest_announcer(
        self,
        announce: Callable[[str, str], None],
        retract: Callable[[str, str], bool] | None = None,
    ) -> None:
        """Callbacks the fabric provides to flood/retract subscription interest.

        ``retract`` returns whether the pattern had been announced for the
        broker, so a pattern that never was (a suppressed one) is not
        counted as retracted.
        """
        self._announce = announce
        self._retract = retract

    def set_federation(self, plane) -> None:
        """Route remote-interest queries through a summarized plane.

        Installed by a federated :class:`BrokerNetwork`
        (``federation=...``); ``plane`` is a
        :class:`~repro.messaging.federation.FederatedInterestPlane`.
        """
        self._fed_plane = plane

    def attach_client(self, client_id: str, link_to_client: Link) -> None:
        """Wire the outbound link used to deliver to a local client."""
        self._client_links[client_id] = link_to_client

    def detach_client(self, client_id: str) -> None:
        """Drop a client link and retract all its interest fabric-wide."""
        self._client_links.pop(client_id, None)
        self.purge_client_subscriptions(client_id)

    def purge_client_subscriptions(self, client_id: str) -> None:
        """Drop every subscription of a client, retracting orphans.

        Patterns whose last local subscriber just vanished must be
        retracted, or peers keep forwarding matching traffic here
        forever.  ``BrokerNetwork.remove_client`` also sweeps this across
        every broker, so a client that detached while its broker was
        failed cannot leave stale fabric interest behind.
        """
        for pattern in self._subs.remove_client_everywhere(client_id):
            self._maybe_retract_interest(pattern)

    @property
    def client_ids(self) -> list[str]:
        """Ids of every client currently attached, sorted."""
        return sorted(self._client_links)

    def has_client(self, client_id: str) -> bool:
        """Whether a client link for ``client_id`` is currently attached."""
        return client_id in self._client_links

    # ----------------------------------------------------------- subscriptions

    def add_client_subscription(self, client_id: str, pattern: str) -> None:
        """Register a client subscription, enforcing constrained rules.

        Delivery happens over the client's link (attached at connect time);
        the subscription table only records who is interested.
        """
        if client_id in self._blacklist:
            raise UnauthorizedError(f"{client_id!r} is blacklisted")
        if client_id not in self._client_links:
            raise NotConnectedError(f"{client_id!r} is not connected to {self.broker_id!r}")
        pattern, constrained = self._parse_pattern(pattern)
        if constrained is not None:
            if not constrained.may_subscribe(client_id, is_broker=False):
                self._record_violation(client_id, f"subscribe to {pattern}")
                raise UnauthorizedError(
                    f"{client_id!r} may not subscribe to constrained topic {pattern!r}"
                )
        self._subs.add_client(pattern, client_id)
        self._subscriptions_client.inc()
        self._propagate_interest(pattern, suppressed=False)

    def remove_client_subscription(self, client_id: str, pattern: str) -> None:
        """Drop one client subscription, retracting interest if last."""
        if self._subs.remove_client(pattern, client_id):
            self._maybe_retract_interest(canonical_pattern(pattern))

    def subscribe_local(self, pattern: str, handler: LocalHandler) -> None:
        """The broker's own subscription (e.g. to a session topic).

        Constrained ``Suppress``/``Limited`` distribution keeps the
        subscription from propagating to other brokers — the hosting broker
        alone consumes traffic on such topics (section 3.1).
        """
        pattern, constrained = self._parse_pattern(pattern)
        suppressed = False
        if constrained is not None:
            if not constrained.may_subscribe(self.broker_id, is_broker=True):
                raise UnauthorizedError(
                    f"broker {self.broker_id!r} may not subscribe to {pattern!r}"
                )
            suppressed = constrained.suppressed()
        self._subs.add_handler(pattern, handler)
        self._subscriptions_broker.inc()
        self._propagate_interest(pattern, suppressed=suppressed)

    def unsubscribe_local(self, pattern: str, handler: LocalHandler) -> None:
        """Remove a broker-own subscription, retracting interest if last."""
        if self._subs.remove_handler(pattern, handler):
            self._maybe_retract_interest(canonical_pattern(pattern))

    @staticmethod
    def _parse_pattern(pattern: str) -> tuple[str, ConstrainedTopic | None]:
        """Validate ``pattern``: its canonical spelling (the string itself
        unless it had a leading ``/``) and, for a constrained pattern, its
        parsed form.  A literal, unconstrained pattern is never split."""
        canonical = canonical_pattern(pattern)
        if canonical.partition("/")[0] != CONSTRAINED_KEYWORD:
            return canonical, None
        return canonical, ConstrainedTopic.parse(canonical)

    def _maybe_retract_interest(self, pattern: str) -> None:
        """Tell the fabric nobody here wants ``pattern`` anymore.

        Called when the last local subscription (client or broker) for a
        pattern disappears; peers stop forwarding matching traffic to us.
        A retraction mirrors an announcement: a pattern the fabric was
        never told about (a suppressed one) is not counted.
        """
        if self._subs.has_local(pattern):
            return
        if self._retract is not None and self._retract(pattern, self.broker_id):
            self._interest_retracted.inc()

    def _propagate_interest(self, pattern: str, suppressed: bool) -> None:
        if suppressed or self._announce is None:
            return
        self._announce(pattern, self.broker_id)
        self._interest_announced.inc()

    def note_remote_interest(self, pattern: str, broker_id: str) -> None:
        """The fabric records that ``broker_id`` has subscribers for ``pattern``."""
        if broker_id != self.broker_id:
            self._subs.add_remote(pattern, broker_id)

    def drop_remote_interest(self, pattern: str, broker_id: str) -> None:
        """Forget a peer's interest; self-retractions are ignored.

        Mirrors the guard in :meth:`note_remote_interest` — a broker's
        own retraction flood must not touch its local index, where the
        pattern may legitimately live on for other subscribers.
        """
        if broker_id != self.broker_id:
            self._subs.remove_remote(pattern, broker_id)

    # ------------------------------------------------------------------ ingress

    def receive_from_client(self, client_id: str, message: Message) -> None:
        """Link-delivery callback for messages a connected client published."""
        if self.failed:
            self.metrics.counter("broker.messages.dropped_broker_failed").inc()
            self.metrics.counter("broker.msgs.dropped").inc()
            return
        if client_id in self._blacklist:
            self.metrics.counter("broker.dos.dropped_blacklisted").inc()
            self.metrics.counter("broker.msgs.dropped").inc()
            return
        self.sim.process(
            self._ingress(message, origin=client_id, from_neighbor=False),
            name=self._ingress_name,
        )

    def receive_from_neighbor(self, neighbor_id: str, frame: RoutedFrame) -> None:
        """Link-delivery callback for broker-to-broker frames."""
        if self.failed:
            self.metrics.counter("broker.messages.dropped_broker_failed").inc()
            self.metrics.counter("broker.msgs.dropped").inc()
            return
        if self.publish_guards or self.broker_id in frame.destinations:
            Process(self.sim, self._neighbor_ingress(neighbor_id, frame), self._fwd_name)
        else:
            # a pass-through waits only on its CPU hold: plain heap
            # callbacks under the keys the process would have had
            self.sim.call_later(
                0.0,
                partial(
                    self.machine.compute_then,
                    self.processing_ms,
                    self._pass_through,
                    neighbor_id,
                    frame,
                ),
            )

    def publish_from_broker(self, message: Message) -> None:
        """The broker itself publishes (trace generation, section 3.3).

        The message enters the network here, so it is stamped with the
        network's next id whatever id it carried (even when this broker
        is down and drops it).
        """
        message = replace(message, message_id=next(self._message_ids))
        if self.failed:
            # a crashed broker generates nothing — its trace processes may
            # still be scheduled, but no self-publication leaves the host
            self.metrics.counter("broker.messages.dropped_broker_failed").inc()
            self.metrics.counter("broker.msgs.dropped").inc()
            return
        self.sim.process(
            self._ingress(message, origin=self.broker_id, from_neighbor=False, self_origin=True),
            name=self._selfpub_name,
        )

    # -------------------------------------------------------------- processing

    def _ingress(
        self,
        message: Message,
        origin: str,
        from_neighbor: bool,
        self_origin: bool = False,
    ) -> Generator[Event, None, None]:
        yield from self.machine.compute(self.processing_ms)
        self._msgs_ingress.inc()

        constrained: ConstrainedTopic | None = None
        if is_constrained(message.topic.canonical):
            constrained = ConstrainedTopic.parse(message.topic.canonical)
            publisher = self.broker_id if self_origin else origin
            if not constrained.may_publish(publisher, is_broker=self_origin):
                self._record_violation(origin, f"publish on {message.topic}")
                self.metrics.counter("broker.messages.rejected_constrained").inc()
                self.metrics.counter("broker.msgs.rejected").inc()
                return

        for guard in self.publish_guards:
            ok = yield from guard(self, message, origin, from_neighbor)
            if not ok:
                self._record_violation(origin, f"guard rejected {message.topic}")
                self.metrics.counter("broker.messages.rejected_guard").inc()
                self.metrics.counter("broker.msgs.rejected").inc()
                return

        yield from self._dispatch(message, constrained, origin, self_origin)

    def _neighbor_ingress(
        self, neighbor_id: str, frame: RoutedFrame
    ) -> Generator[Event, None, None]:
        message = frame.message
        yield from self.machine.compute(self.processing_ms)
        self._msgs_forwarded_in.inc()

        for guard in self.publish_guards:
            ok = yield from guard(self, message, neighbor_id, True)
            if not ok:
                self.metrics.counter("broker.messages.rejected_guard").inc()
                self.metrics.counter("broker.msgs.rejected").inc()
                return

        remaining = frame.destinations
        if self.broker_id in remaining:
            if not self._subs.has_local_match(message.topic.canonical):
                if (
                    self._fed_plane is not None
                    and not self._fed_plane.is_exact(self.broker_id)
                ):
                    # a digest summary matched a topic nobody here wants:
                    # the tolerated cost of summarized interest, distinct
                    # from the stale-interest bug class below
                    self.metrics.counter("fed.forwards.false_positive").inc()
                else:
                    # a peer forwarded to us on stale interest: nobody here
                    # consumes this topic anymore (the bug class the interest
                    # lifecycle is meant to prevent) — count it loudly
                    self.metrics.counter("broker.interest.stale_forwards").inc()
            yield from self._deliver_local(message)
            remaining = tuple(d for d in remaining if d != self.broker_id)
        if remaining:
            self._forward(message.with_hop(), remaining, exclude_neighbor=neighbor_id)

    def _pass_through(self, neighbor_id: str, frame: RoutedFrame) -> None:
        """What :meth:`_neighbor_ingress` does after its hold, for a frame
        with no guard to pass and no local delivery."""
        self._msgs_forwarded_in.inc()
        self._forward(frame.message.with_hop(), frame.destinations, exclude_neighbor=neighbor_id)
        # the seq number the finished process would have taken
        self.sim.skip_seq()

    def _dispatch(
        self,
        message: Message,
        constrained: ConstrainedTopic | None,
        origin: str,
        self_origin: bool,
    ) -> Generator[Event, None, None]:
        yield from self._deliver_local(message, exclude_client=None if self_origin else origin)

        # Publish suppression: the constrainer's publications stay local.
        if constrained is not None and constrained.suppressed():
            publisher = self.broker_id if self_origin else origin
            if constrained._is_constrainer(publisher, is_broker=self_origin):
                self.metrics.counter("broker.messages.suppressed").inc()
                return

        destinations = self._interested_brokers(message.topic.canonical)
        if destinations:
            self._forward(message.with_hop(), tuple(sorted(destinations)), exclude_neighbor=None)

    def _interested_brokers(self, topic: str) -> set[str]:
        if self._fed_plane is not None:
            return self._fed_plane.interested(topic, exclude=self.broker_id)
        return self._subs.match_remote(topic, exclude=self.broker_id)

    def _forward(
        self,
        message: Message,
        destinations: tuple[str, ...],
        exclude_neighbor: str | None,
    ) -> None:
        routing_table = self.routing_table
        by_next_hop: dict[str, list[str]] = {}
        for dest in destinations:
            next_hop = routing_table.get(dest)
            if next_hop is None:
                # destination currently unreachable (failed broker or
                # partition): drop that leg, deliver the rest
                self.metrics.counter("broker.msgs.unroutable").inc()
                continue
            leg = by_next_hop.get(next_hop)
            if leg is None:
                by_next_hop[next_hop] = [dest]
            else:
                leg.append(dest)
        # a single leg to a single destination, the common case, needs no sort
        legs = by_next_hop.items()
        if len(by_next_hop) > 1:
            legs = sorted(legs)
        for next_hop, dests in legs:
            if len(dests) > 1:
                dests.sort()
            if next_hop == exclude_neighbor:
                # shortest-path split never routes back where it came from;
                # a topology change while the frame was in flight can ask
                # for it, and the leg is dropped, loudly
                self.metrics.counter("broker.messages.dropped_backtrack").inc()
                self.metrics.counter("broker.msgs.dropped").inc()
                self.monitor.journal.record(
                    self.sim.now,
                    "route.backtrack",
                    broker=self.broker_id,
                    neighbor=next_hop,
                    destinations=tuple(dests),
                )
                continue
            link = self.neighbor_links.get(next_hop)
            if link is None:
                # a routing table naming a neighbor this broker has no link
                # to: the leg is dropped, loudly
                self.metrics.counter("broker.messages.dropped_no_link").inc()
                self.metrics.counter("broker.msgs.dropped").inc()
                self.monitor.journal.record(
                    self.sim.now,
                    "route.no_link",
                    broker=self.broker_id,
                    next_hop=next_hop,
                    destinations=tuple(dests),
                )
                continue
            link.send(RoutedFrame(message, tuple(dests)))
            self._msgs_forwarded_out.inc()

    def _deliver_local(
        self, message: Message, exclude_client: str | None = None
    ) -> Generator[Event, None, None]:
        topic = message.topic.canonical
        fanout = 0

        for _pattern, handlers in self._subs.match_handlers(topic):
            for handler in handlers:
                yield from self.machine.compute(self.per_delivery_ms)
                handler(message)
                self._delivered_broker_local.inc()
                fanout += 1

        # a client subscribed through several matching patterns gets one
        # copy: its own index runs the handlers of every pattern per copy
        sent: set[str] = set()
        for _pattern, subscribers in self._subs.match_clients(topic):
            # delivery order is arbitrary in a real broker (hash order);
            # shuffling avoids privileging any subscriber in the fan-out
            ordered = subscribers
            self.machine.rng.shuffle(ordered)
            for client_id in ordered:
                if client_id == exclude_client or client_id in sent:
                    continue
                link = self._client_links.get(client_id)
                if link is None:
                    continue
                yield from self.machine.compute(self.per_delivery_ms)
                link.send(message)
                sent.add(client_id)
                self._delivered_client.inc()
                fanout += 1

        if fanout:
            self.metrics.counter("broker.msgs.delivered").inc(fanout)
            self.metrics.counter(
                f"broker.delivered.{topic_family(topic)}"
            ).inc(fanout)
        self.metrics.histogram(
            "broker.fanout", bounds=FANOUT_BUCKETS
        ).observe(float(fanout))

    # ------------------------------------------------------------------- DoS

    def _record_violation(self, principal: str, what: str) -> None:
        self._violations[principal] += 1
        self.metrics.counter("broker.violations").inc()
        self.monitor.journal.record(self.sim.now, "violation", principal=principal, what=what)
        if (
            self._violations[principal] >= self.violation_limit
            and principal in self._client_links
        ):
            self.terminate_client(principal)

    def terminate_client(self, client_id: str) -> None:
        """Terminate communications with a malicious entity (section 5.2)."""
        self._blacklist.add(client_id)
        self.detach_client(client_id)
        self.metrics.counter("broker.dos.terminated").inc()
        self.monitor.journal.record(self.sim.now, "terminated", principal=client_id)

    def is_blacklisted(self, client_id: str) -> bool:
        """Whether a principal was terminated for violations (§5.2)."""
        return client_id in self._blacklist

    # ------------------------------------------------------------------ misc

    def has_any_subscriber(self, topic: str) -> bool:
        """Anyone (local client, broker handler, or remote broker) interested?"""
        if self._fed_plane is not None:
            return self._subs.has_local_match(topic) or self._fed_plane.has_interest(
                topic, exclude=self.broker_id
            )
        return self._subs.has_any_match(topic, exclude_remote=self.broker_id)

    def __repr__(self) -> str:
        return f"<Broker {self.broker_id}>"
