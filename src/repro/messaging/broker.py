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
deterministic shortest-path multicast with no duplicates or loops.  The
frame also carries the hop count, so a broker the frame only crosses
forwards the message itself, not a copy.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
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
from repro.obs import Counter, Histogram
from repro.sim.engine import Event, Process, Simulator
from repro.sim.machine import Machine
from repro.sim.monitor import Monitor
from repro.transport.link import Link

#: Violations tolerated before the broker terminates communications.
DEFAULT_VIOLATION_LIMIT = 3

#: Broker per-message processing overhead (queueing, matching, bookkeeping).
DEFAULT_PROCESSING_MS = 2.9

#: Broker CPU cost of handing one message to one local subscriber.
PER_DELIVERY_MS = 0.09

#: Bucket bounds for the ``broker.fanout`` histogram (deliveries/message).
FANOUT_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: Entries each per-topic map of a broker holds (constrained forms, delivery
#: counters); when full, the oldest entry is dropped.  A broker sees a
#: handful of topics per hosted or tracked entity.
TOPIC_MEMO_BOUND = 1024

#: What a topic string that may be constrained starts with: a canonical or
#: a leading-'/' spelling of the keyword.
_CONSTRAINED_PREFIXES = (CONSTRAINED_KEYWORD, "/" + CONSTRAINED_KEYWORD)

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
        monitor: Monitor,
    ) -> None:
        self.sim = sim
        self.broker_id = broker_id
        self.machine = machine
        # the network's id counter (BrokerNetwork.message_ids)
        self._message_ids = message_ids
        self.monitor = monitor
        self.metrics = monitor.metrics
        self.processing_ms = DEFAULT_PROCESSING_MS
        self.violation_limit = DEFAULT_VIOLATION_LIMIT
        # sim process names, one per way a message enters this broker
        self._ingress_name = f"{broker_id}.ingress"
        self._fwd_name = f"{broker_id}.fwd"
        self._selfpub_name = f"{broker_id}.selfpub"

        # fabric wiring (populated by BrokerNetwork)
        self.neighbor_links: dict[str, Link] = {}
        self.routing_table: dict[str, str] = {}
        self._announce: Callable[[str, str], None] | None = None
        self._retract: Callable[[str, str], None] | None = None
        # summarized-interest plane; when set, remote routing queries go
        # through peer summaries instead of verbatim remote-interest rows
        self._fed_plane = None

        # subscription state: one index holds client
        # subscriptions, broker-local handlers and remote interest, so
        # every "who matches this topic" query is O(topic depth)
        self._subs = SubscriptionIndex(metrics=self.metrics)

        # client connections: client_id -> outbound link to that client
        self._client_links: dict[str, Link] = {}

        # per-topic facts of the message path, computed on first sight and
        # held up to TOPIC_MEMO_BOUND entries each (constrained_form,
        # _deliver_local)
        self._constrained_forms: dict[str, ConstrainedTopic | None] = {}
        self._family_counters: dict[str, Counter] = {}

        # enforcement
        self.publish_guards: list[PublishGuard] = []
        self._violations: dict[str, int] = defaultdict(int)
        self._blacklist: set[str] = set()

        # failure model: a failed broker drops everything it receives, and
        # whatever held its CPU when it failed
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
    def _msgs_delivered(self) -> Counter:
        return self.metrics.counter("broker.msgs.delivered")

    @cached_property
    def _fanout(self) -> Histogram:
        return self.metrics.histogram("broker.fanout", bounds=FANOUT_BUCKETS)

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

    @cached_property
    def _false_positive_forwards(self) -> Counter:
        return self.metrics.counter("fed.forwards.false_positive")

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
        retract: Callable[[str, str], None] | None = None,
    ) -> None:
        """Callbacks the fabric provides to flood/retract subscription interest.

        The broker calls ``announce`` when a pattern becomes announced and
        ``retract`` when it stops being announced (see
        :meth:`announced_patterns`), never twice in a row for one pattern.
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
            self._retract_interest(pattern)

    @property
    def client_ids(self) -> list[str]:
        """Ids of every client currently attached, sorted."""
        return sorted(self._client_links)

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
        self._subscriptions_client.inc()
        if self._subs.add_client(pattern, client_id):
            self._announce_interest(pattern)

    def remove_client_subscription(self, client_id: str, pattern: str) -> None:
        """Drop one client subscription, retracting interest if last."""
        if self._subs.remove_client(pattern, client_id):
            self._retract_interest(canonical_pattern(pattern))

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
        self._subscriptions_broker.inc()
        if self._subs.add_handler(pattern, handler, quiet=suppressed):
            self._announce_interest(pattern)

    def unsubscribe_local(self, pattern: str, handler: LocalHandler) -> None:
        """Remove a broker-own subscription, retracting interest if last."""
        if self._subs.remove_handler(pattern, handler):
            self._retract_interest(canonical_pattern(pattern))

    def announced_patterns(self) -> list[str]:
        """The patterns this broker announces to the fabric, in no order.

        A pattern is announced while it has a client subscriber or a
        handler whose pattern is not ``Suppress``-constrained.  The
        federated plane reads this when it builds an exact summary.
        """
        return self._subs.announced()

    def _parse_pattern(self, pattern: str) -> tuple[str, ConstrainedTopic | None]:
        """Validate ``pattern``: its canonical spelling (the string itself
        unless it had a leading ``/``) and, for a constrained pattern, its
        parsed form.  A literal, unconstrained pattern is never split."""
        canonical = canonical_pattern(pattern)
        return canonical, self.constrained_form(canonical)

    def constrained_form(self, topic: str) -> ConstrainedTopic | None:
        """``ConstrainedTopic.parse(topic)`` if ``is_constrained(topic)``, else None.

        Parsed once per distinct string and held (up to
        :data:`TOPIC_MEMO_BOUND` entries) for every later publication,
        subscription and publish guard on this broker.  A string that
        cannot start with the ``Constrained`` keyword costs one prefix test
        and is never held; anything but a string is not constrained.
        """
        try:
            if not topic.startswith(_CONSTRAINED_PREFIXES):
                return None
        except (AttributeError, TypeError):
            return None
        forms = self._constrained_forms
        try:
            return forms[topic]
        except KeyError:
            pass
        form = ConstrainedTopic.parse(topic) if is_constrained(topic) else None
        if len(forms) >= TOPIC_MEMO_BOUND:
            del forms[next(iter(forms))]
        forms[topic] = form
        return form

    def _announce_interest(self, pattern: str) -> None:
        """Tell the fabric ``pattern`` just became announced here."""
        if self._announce is not None:
            self._announce(pattern, self.broker_id)
            self._interest_announced.inc()

    def _retract_interest(self, pattern: str) -> None:
        """Tell the fabric ``pattern`` is no longer announced here: peers
        stop forwarding matching traffic to us."""
        if self._retract is not None:
            self._retract(pattern, self.broker_id)
            self._interest_retracted.inc()

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
            self._drop_failed()
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
        """Link-delivery callback for broker-to-broker frames.

        A frame that must pass a publish guard or be delivered here runs
        :meth:`_neighbor_ingress` as a process.  Any other frame only
        crosses this broker: its CPU hold starts in this step
        (:meth:`~repro.sim.engine.Resource.use_then`), and the hold's
        timer entry forwards it, so the hop is two heap entries, this
        delivery and that timer.
        """
        if self.failed:
            self._drop_failed()
            return
        if self.publish_guards or self.broker_id in frame.destinations:
            Process(self.sim, self._neighbor_ingress(neighbor_id, frame), self._fwd_name)
        else:
            # a pass-through waits only on its CPU hold, which starts here
            self.machine.cpu.use_then(
                self.processing_ms, self._pass_through, neighbor_id, frame
            )

    def publish_from_broker(self, message: Message) -> None:
        """The broker itself publishes (trace generation, section 3.3).

        The message enters the network here, so it is stamped with the
        network's next id whatever id it carried (even when this broker
        is down and drops it).
        """
        message = message.with_message_id(next(self._message_ids))
        if self.failed:
            # a crashed broker generates nothing — its trace processes may
            # still be scheduled, but no self-publication leaves the host
            self._drop_failed()
            return
        self.sim.process(
            self._ingress(message, origin=self.broker_id, from_neighbor=False, self_origin=True),
            name=self._selfpub_name,
        )

    def _drop_failed(self) -> None:
        """Count a message this broker drops because it is down."""
        self.metrics.counter("broker.messages.dropped_broker_failed").inc()
        self.metrics.counter("broker.msgs.dropped").inc()

    # -------------------------------------------------------------- processing

    def _ingress(
        self,
        message: Message,
        origin: str,
        from_neighbor: bool,
        self_origin: bool = False,
    ) -> Generator[Event, None, None]:
        yield from self.machine.compute(self.processing_ms)
        if self.failed:
            # crashed while the message held its CPU
            self._drop_failed()
            return
        self._msgs_ingress.inc()

        constrained = self.constrained_form(message.topic.canonical)
        if constrained is not None:
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
        # guards and handlers see the links the message crossed to get here
        message = frame.message.with_hops(frame.hops)
        yield from self.machine.compute(self.processing_ms)
        if self.failed:
            self._drop_failed()
            return
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
                    self._false_positive_forwards.inc()
                else:
                    # a peer forwarded to us on stale interest: nobody here
                    # consumes this topic anymore (the bug class the interest
                    # lifecycle is meant to prevent) — count it loudly
                    self.metrics.counter("broker.interest.stale_forwards").inc()
            yield from self._deliver_local(message)
            remaining = tuple(d for d in remaining if d != self.broker_id)
        if remaining:
            self._forward(frame.message, remaining, neighbor_id, frame.hops + 1)

    def _pass_through(self, neighbor_id: str, frame: RoutedFrame) -> None:
        """What :meth:`_neighbor_ingress` does after its hold, for a frame
        with no guard to pass and no local delivery: the same message goes
        on, one hop further."""
        if self.failed:
            self._drop_failed()
            return
        self._msgs_forwarded_in.inc()
        self._forward(frame.message, frame.destinations, neighbor_id, frame.hops + 1)

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
            self._forward(message, tuple(sorted(destinations)), None, message.hops + 1)

    def _interested_brokers(self, topic: str) -> set[str]:
        if self._fed_plane is not None:
            return self._fed_plane.interested(topic, exclude=self.broker_id)
        return self._subs.match_remote(topic, exclude=self.broker_id)

    def _forward(
        self,
        message: Message,
        destinations: tuple[str, ...],
        exclude_neighbor: str | None,
        hops: int,
    ) -> None:
        """Send ``message`` towards ``destinations``, one frame per next hop.

        Every frame carries ``hops``: the links the message will have
        crossed once it is over the one it is sent on.
        """
        routing_table = self.routing_table
        if len(destinations) == 1:
            # one destination, the common case: its leg is the incoming tuple
            legs = ((routing_table.get(destinations[0]), destinations),)
        else:
            by_next_hop: dict[str | None, list[str]] = {}
            for dest in destinations:
                next_hop = routing_table.get(dest)
                leg = by_next_hop.get(next_hop)
                if leg is None:
                    by_next_hop[next_hop] = [dest]
                else:
                    leg.append(dest)
            # in next-hop order, an unroutable leg (None) first
            legs = sorted(
                [(next_hop, tuple(sorted(dests))) for next_hop, dests in by_next_hop.items()],
                key=lambda leg: leg[0] or "",
            )
        for next_hop, dests in legs:
            if next_hop is None:
                # destination currently unreachable (failed broker or
                # partition): drop that leg, deliver the rest
                self.metrics.counter("broker.msgs.unroutable").inc(len(dests))
                continue
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
                    destinations=dests,
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
                    destinations=dests,
                )
                continue
            link.send(RoutedFrame(message, dests, hops))
            self._msgs_forwarded_out.inc()

    def _deliver_local(
        self, message: Message, exclude_client: str | None = None
    ) -> Generator[Event, None, None]:
        topic = message.topic.canonical
        fanout = 0

        for _pattern, handlers in self._subs.match_handlers(topic):
            for handler in handlers:
                yield from self.machine.compute(PER_DELIVERY_MS)
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
                yield from self.machine.compute(PER_DELIVERY_MS)
                link.send(message)
                sent.add(client_id)
                self._delivered_client.inc()
                fanout += 1

        if fanout:
            self._msgs_delivered.inc(fanout)
            family = self._family_counters.get(topic)
            if family is None:
                family = self._family_counter(topic)
            family.inc(fanout)
        self._fanout.observe(float(fanout))

    def _family_counter(self, topic: str) -> Counter:
        """Resolve and hold ``broker.delivered.<family>`` for ``topic``."""
        counters = self._family_counters
        if len(counters) >= TOPIC_MEMO_BOUND:
            del counters[next(iter(counters))]
        counter = self.metrics.counter(f"broker.delivered.{topic_family(topic)}")
        counters[topic] = counter
        return counter

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
