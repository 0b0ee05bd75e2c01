"""Client-side connection of an entity to its broker.

An entity is connected to one broker and uses it to funnel messages to the
broker network (section 2).  The client object holds the entity's half of
the duplex link, tracks its subscriptions, and dispatches delivered
messages to local handlers.

Handlers live in a private :class:`~repro.messaging.matching.SubscriptionIndex`,
the index brokers match with: a tracker subscribes to a handful of
exact topics per tracked entity (section 3), and finding the handlers of
one delivered trace must not cost more the more entities it tracks.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Callable, Iterator

from repro.errors import NotConnectedError
from repro.messaging.broker import Broker
from repro.messaging.matching import SubscriptionIndex
from repro.messaging.message import Message
from repro.messaging.topics import Topic
from repro.obs import Counter
from repro.sim.engine import Simulator
from repro.sim.machine import Machine
from repro.sim.monitor import Monitor
from repro.transport.link import Link
from repro.util.serialization import Canonical

Handler = Callable[[Message], None]


class BrokerClient:
    """One entity's connection endpoint.

    Wiring (links in both directions) is performed by
    :meth:`repro.messaging.broker_network.BrokerNetwork.connect_client`.

    Subscription patterns are canonicalized (``/a/b`` and ``a/b`` are one
    subscription).  A message matching several of this client's patterns
    runs their handlers in sorted-pattern order, then registration order
    within a pattern: the index's order, never hash or insertion order
    (the DET02 contract brokers already follow).
    """

    def __init__(
        self,
        sim: Simulator,
        client_id: str,
        machine: Machine,
        message_ids: Iterator[int],
        monitor: Monitor,
    ) -> None:
        self.sim = sim
        self.client_id = client_id
        self.machine = machine
        # the network's id counter (BrokerNetwork.message_ids)
        self._message_ids = message_ids
        self.monitor = monitor
        self._broker: Broker | None = None
        self._link_to_broker: Link | None = None
        # no registry: the broker.interest.* gauges count broker-side
        # entries, and every subscription here has one there already
        self._subs = SubscriptionIndex()

    # Per-publish and per-delivery instruments, held on first use
    # (docs/OBSERVABILITY.md "Adding an instrument").

    @cached_property
    def _published(self) -> Counter:
        return self.monitor.metrics.counter("broker.clients.published")

    @cached_property
    def _received(self) -> Counter:
        return self.monitor.metrics.counter("broker.clients.received")

    # ----------------------------------------------------------------- wiring

    def attach(self, broker: Broker, link_to_broker: Link) -> None:
        """Bind this client to its broker and outbound link."""
        self._broker = broker
        self._link_to_broker = link_to_broker

    @property
    def connected(self) -> bool:
        """Whether the client currently has a broker attached."""
        return self._broker is not None

    @property
    def broker(self) -> Broker:
        """The attached broker; NotConnectedError when detached."""
        if self._broker is None:
            raise NotConnectedError(f"{self.client_id!r} is not connected")
        return self._broker

    def disconnect(self) -> None:
        """Detach from the broker, dropping server-side subscriptions."""
        if self._broker is not None:
            self._broker.detach_client(self.client_id)
        self._broker = None
        self._link_to_broker = None

    # ------------------------------------------------------------- pub/sub API

    def publish(
        self,
        topic: str | Topic,
        body: Any,
        signature: dict | None = None,
        auth_token: Canonical | None = None,
        encrypted: bool = False,
    ) -> Message:
        """Publish a message; it travels the client link to the broker."""
        if self._link_to_broker is None:
            raise NotConnectedError(f"{self.client_id!r} is not connected")
        parsed = topic if isinstance(topic, Topic) else Topic.parse(topic)
        message = Message(
            topic=parsed,
            body=body,
            source=self.client_id,
            message_id=next(self._message_ids),
            created_ms=self.machine.now(),
            signature=signature,
            auth_token=auth_token,
            encrypted=encrypted,
        )
        self._link_to_broker.send(message)
        self._published.inc()
        return message

    def subscribe(self, pattern: str | Topic, handler: Handler) -> None:
        """Subscribe; broker-side validation may raise UnauthorizedError."""
        text = pattern.canonical if isinstance(pattern, Topic) else pattern
        self.broker.add_client_subscription(self.client_id, text)
        self._subs.add_handler(text, handler)

    def unsubscribe(self, pattern: str | Topic, handler: Handler | None = None) -> None:
        """Remove one handler (or all) for a pattern; retracts the
        server-side subscription when the last local handler goes."""
        text = pattern.canonical if isinstance(pattern, Topic) else pattern
        for each in self._subs.handlers_for(text) if handler is None else (handler,):
            self._subs.remove_handler(text, each)
        if text not in self._subs:  # emptied entries are pruned
            self.broker.remove_client_subscription(self.client_id, text)

    # -------------------------------------------------------------- delivery

    def _receive(self, message: Message) -> None:
        """Delivery callback for the broker-to-client link.

        The matched handlers are immutable tuples, so a handler may
        unsubscribe itself or a sibling while the message is dispatched.
        """
        self._received.inc()
        for _pattern, handlers in self._subs.match_handlers(message.topic.canonical):
            for handler in handlers:
                handler(message)

    def __repr__(self) -> str:
        broker = self._broker.broker_id if self._broker else None
        return f"<BrokerClient {self.client_id} @ {broker}>"
