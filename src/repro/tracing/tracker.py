"""The tracker: authorized consumption of traces (sections 3.4, 3.5, 5.1).

A tracker discovers the trace topic through the TDN (presenting its
credentials; no response means it cannot proceed), subscribes to the
constrained topics carrying the trace types it selected, answers the
broker's GUAGE_INTEREST requests, and verifies every trace it receives:
the authorization token (once per trace topic) and the per-message
signature made with the token's key.  For secured sessions it receives the
secret trace key via the sealed key-distribution payload and decrypts
trace bodies with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator

from repro.auth.credentials import EntityCredentials
from repro.auth.tokens import AuthorizationToken
from repro.auth.verification import TokenVerifier
from repro.crypto.costmodel import CryptoOp
from repro.crypto.keys import SymmetricKey
from repro.crypto.signing import verify_signed_body
from repro.errors import (
    DecryptionError,
    DiscoveryError,
    MalformedFrameError,
    SignatureError,
    TokenError,
    UnauthorizedError,
)
from repro.messaging.broker_network import BrokerNetwork
from repro.messaging.message import Message
from repro.security.confidentiality import unwrap_trace_body
from repro.security.keydist import KeyDistributionPayload, open_key_payload
from repro.sim.engine import Event, Simulator
from repro.sim.machine import Machine
from repro.sim.monitor import Monitor
from repro.tdn.advertisement import TopicAdvertisement
from repro.tdn.node import TDNCluster
from repro.tdn.query import DiscoveryQuery
from repro.tracing.interest import ALL_CATEGORIES, InterestCategory, InterestResponse
from repro.tracing.topics import TraceTopicSet
from repro.tracing.traces import TraceBody, TraceType
from repro.util.identifiers import EntityId

#: Default age below which a gauge is not answered again: the interest the
#: tracker last registered is still live at the broker.
DEFAULT_INTEREST_REFRESH_MS = 30_000.0


@dataclass(frozen=True, slots=True)
class ReceivedTrace:
    """One verified (and decrypted) trace as seen by a tracker."""

    trace_type: TraceType
    entity_id: str
    received_ms: float
    latency_ms: float | None  # end-to-end, when an origin stamp was present
    payload: dict


@dataclass(slots=True)
class _WatchedEntity:
    advertisement: TopicAdvertisement
    topics: TraceTopicSet
    trace_key: SymmetricKey | None = None
    last_gauge_stamp_ms: float | None = None
    last_response_ms: float | None = None
    categories: frozenset = field(default_factory=lambda: ALL_CATEGORIES)


class Tracker:
    """An entity interested in tracing others."""

    def __init__(
        self,
        sim: Simulator,
        tracker_id: str,
        network: BrokerNetwork,
        machine: Machine,
        credentials: EntityCredentials,
        tdn: TDNCluster,
        token_verifier: TokenVerifier,
        monitor: Monitor,
        interests: frozenset[InterestCategory] = ALL_CATEGORIES,
        proactive_interest: bool = True,
        verify_traces: bool = True,
    ) -> None:
        self.sim = sim
        self.tracker_id = tracker_id
        self.network = network
        self.machine = machine
        self.credentials = credentials
        self.tdn = tdn
        self.token_verifier = token_verifier
        self.monitor = monitor
        self.interests = frozenset(interests)
        self.proactive_interest = proactive_interest
        self.verify_traces = verify_traces
        self.interest_refresh_ms = DEFAULT_INTEREST_REFRESH_MS

        self.client = None
        self.received: list[ReceivedTrace] = []
        self.on_trace: Callable[[ReceivedTrace], None] | None = None
        self._watched: dict[str, _WatchedEntity] = {}
        # per-session trace sequence tracking for gap detection
        self._last_seq: dict[str, int] = {}

    # ------------------------------------------------------------------ wiring

    def connect(self, broker_id: str, transport_profile=None) -> None:
        self.client = self.network.add_client(
            self.tracker_id, machine_name=self.machine.name
        )
        self.network.connect_client(self.client, broker_id, transport_profile)

    # ------------------------------------------------------------------- track

    def track(self, entity_id: EntityId | str):
        """Spawn the discovery-and-subscribe process."""
        return self.sim.process(
            self.run_track(entity_id), name=f"tracker.{self.tracker_id}.track"
        )

    def run_track(
        self, entity_id: EntityId | str
    ) -> Generator[Event, None, TopicAdvertisement]:
        """Process body: discover the trace topic and subscribe (section 3.4).

        Raises :class:`DiscoveryError` if the TDN ignores the query (either
        the topic does not exist or this tracker is not authorized — the
        two cases are indistinguishable by design).
        """
        if self.client is None:
            from repro.errors import NotConnectedError

            raise NotConnectedError(
                f"tracker {self.tracker_id!r} must connect() to a broker "
                "before tracking"
            )
        eid = entity_id if isinstance(entity_id, EntityId) else EntityId(entity_id)
        query = DiscoveryQuery.for_entity(eid)
        advertisement = yield from self.tdn.discover(
            query, self.credentials.certificate
        )
        if advertisement is None:
            self.monitor.metrics.counter("tracker.discovery_denied").inc()
            raise DiscoveryError(
                f"tracker {self.tracker_id!r} cannot discover the trace topic "
                f"of {eid} (unauthorized or nonexistent)"
            )
        result = yield from self._wire_subscriptions(eid, advertisement)
        return result

    def _wire_subscriptions(
        self, eid: EntityId, advertisement: TopicAdvertisement
    ) -> Generator[Event, None, TopicAdvertisement]:
        """Subscribe to the selected trace streams of one advertisement.

        All or nothing: if the broker refuses one subscribe, the ones
        already made are undone and the entity is not watched.
        """
        topics = TraceTopicSet(advertisement.fields.trace_topic, eid)
        watched = _WatchedEntity(
            advertisement=advertisement, topics=topics, categories=self.interests
        )
        wanted = [
            (
                topics.topic_for_category(category),
                lambda msg, w=watched: self._on_trace_message(w, msg),
            )
            for category in sorted(self.interests, key=lambda c: c.value)
        ]
        wanted.append(
            (topics.interest_request, lambda msg, w=watched: self._on_gauge(w, msg))
        )
        wanted.append(
            (
                topics.key_delivery(self.credentials.subject),
                lambda msg, w=watched: self._on_key_delivery(w, msg),
            )
        )
        subscribed = []
        try:
            for topic, handler in wanted:
                self.client.subscribe(topic, handler)
                subscribed.append((topic, handler))
        except UnauthorizedError:
            for topic, handler in subscribed:
                self.client.unsubscribe(topic, handler)
            raise
        self._watched[str(eid)] = watched
        self.monitor.metrics.counter("tracker.tracking").inc()

        if self.proactive_interest:
            yield from self._send_interest_response(watched)
        return advertisement

    def untrack(self, entity_id: EntityId | str):
        """Spawn the stop-tracking process for one entity."""
        return self.sim.process(
            self.run_untrack(entity_id), name=f"tracker.{self.tracker_id}.untrack"
        )

    def run_untrack(self, entity_id: EntityId | str) -> Generator[Event, None, bool]:
        """Process body: unsubscribe everything and retract interest.

        Sends an *empty* interest response — the broker treats it as a
        retraction (section 3.5), so if this was the last interested
        tracker, trace publication stops immediately rather than waiting
        for the interest TTL.  Returns False if the entity wasn't tracked.
        """
        key = str(entity_id)
        watched = self._watched.pop(key, None)
        if watched is None:
            return False
        topics = watched.topics
        for category in sorted(watched.categories, key=lambda c: c.value):
            self.client.unsubscribe(topics.topic_for_category(category))
        self.client.unsubscribe(topics.interest_request)
        self.client.unsubscribe(topics.key_delivery(self.credentials.subject))

        yield from self._publish_interest(topics, ())  # empty = retraction
        self.monitor.metrics.counter("tracker.untracked").inc()
        return True

    def track_matching(self, entity_pattern: str):
        """Spawn tracking of every discoverable entity matching a pattern."""
        return self.sim.process(
            self.run_track_matching(entity_pattern),
            name=f"tracker.{self.tracker_id}.track_matching",
        )

    def run_track_matching(
        self, entity_pattern: str
    ) -> Generator[Event, None, list[TopicAdvertisement]]:
        """Process body: wildcard discovery, then track each hit.

        Entities this tracker is not authorized to discover are silently
        absent from the result, like the single-entity case.  Returns the
        advertisements that were tracked.
        """
        query = DiscoveryQuery.for_pattern(entity_pattern)
        advertisements = yield from self.tdn.discover_all(
            query, self.credentials.certificate
        )
        tracked = []
        for advertisement in advertisements:
            entity_id = advertisement.fields.entity_id
            if str(entity_id) in self._watched:
                continue
            yield from self._wire_subscriptions(entity_id, advertisement)
            tracked.append(advertisement)
        self.monitor.metrics.counter("tracker.pattern_discoveries").inc()
        return tracked

    # --------------------------------------------------------------- interest

    def _on_gauge(self, watched: _WatchedEntity, message: Message) -> None:
        self.sim.process(
            self._handle_gauge(watched, message),
            name=f"tracker.{self.tracker_id}.gauge",
        )

    def _handle_gauge(
        self, watched: _WatchedEntity, message: Message
    ) -> Generator[Event, None, None]:
        token = yield from self._check_token(message)
        if token is None:
            return
        self.monitor.metrics.counter("tracker.gauges_received").inc()
        # a recently refreshed interest registration need not be re-signed
        # for every periodic gauge — it is still live at the broker
        now = self.machine.now()
        if (
            watched.last_response_ms is not None
            and now - watched.last_response_ms < self.interest_refresh_ms
        ):
            return
        try:
            stamp_ms = TraceBody.from_dict(message.body).broker_stamp_ms
        except MalformedFrameError:
            stamp_ms = None  # the gauge is answered all the same, it just times no key hand-off
        if stamp_ms is not None:
            watched.last_gauge_stamp_ms = stamp_ms
        yield from self._send_interest_response(watched)

    def _send_interest_response(
        self, watched: _WatchedEntity
    ) -> Generator[Event, None, None]:
        yield from self._publish_interest(
            watched.topics, tuple(sorted(c.value for c in self.interests))
        )
        watched.last_response_ms = self.machine.now()
        self.monitor.metrics.counter("tracker.interest_responses").inc()

    def _publish_interest(
        self, topics: TraceTopicSet, categories: tuple[str, ...]
    ) -> Generator[Event, None, None]:
        """Sign and publish one interest response (section 3.5)."""
        body = InterestResponse(
            categories=categories,
            certificate=self.credentials.certificate,
            stamp_ms=self.machine.now(),
        ).to_dict()
        yield from self.machine.charge(CryptoOp.TRACE_SIGN)
        envelope = self.credentials.sign(body)
        self.client.publish(topics.interest_response, body, signature=envelope.to_dict())

    # --------------------------------------------------------- key distribution

    def _on_key_delivery(self, watched: _WatchedEntity, message: Message) -> None:
        self.sim.process(
            self._handle_key_delivery(watched, message),
            name=f"tracker.{self.tracker_id}.key",
        )

    def _handle_key_delivery(
        self, watched: _WatchedEntity, message: Message
    ) -> Generator[Event, None, None]:
        yield from self.machine.charge(CryptoOp.OPEN_SEALED)
        try:
            payload = KeyDistributionPayload.from_dict(message.body)
            watched.trace_key = open_key_payload(
                payload, self.credentials.keys.private
            )
        except (DecryptionError, MalformedFrameError):
            self.monitor.metrics.counter("tracker.key_payload_rejected").inc()
            return
        self.monitor.metrics.counter("tracker.keys.received").inc()
        if watched.last_gauge_stamp_ms is not None:
            # measured against the gauge that elicited our interest response
            self.monitor.metrics.histogram("tracker.keydist.latency_ms").observe(
                self.machine.now() - watched.last_gauge_stamp_ms
            )

    # ------------------------------------------------------------------ traces

    def _on_trace_message(self, watched: _WatchedEntity, message: Message) -> None:
        self.sim.process(
            self._handle_trace(watched, message),
            name=f"tracker.{self.tracker_id}.trace",
        )

    def _check_token(
        self, message: Message
    ) -> Generator[Event, None, AuthorizationToken | None]:
        """Verify the attached authorization token; None on failure.

        The cost is paid once per distinct token (until the entity refreshes
        it, which changes its bytes); expiry is checked on every message
        (:meth:`~repro.auth.verification.TokenVerifier.check`).
        """
        if message.auth_token is None:
            self.monitor.metrics.counter("tracker.traces_without_token").inc()
            return None
        try:
            return (yield from self.token_verifier.check(message.auth_token, self.machine))
        except TokenError:
            self.monitor.metrics.counter("tracker.tokens_rejected").inc()
            return None

    def _handle_trace(
        self, watched: _WatchedEntity, message: Message
    ) -> Generator[Event, None, None]:
        body = message.body
        if not isinstance(body, dict):
            return

        if self.verify_traces:
            token = yield from self._check_token(message)
            if token is None:
                return
            if message.signature is None:
                self.monitor.metrics.counter("tracker.traces_unsigned").inc()
                return
            op = (
                CryptoOp.TRACE_VERIFY_ENCRYPTED
                if message.encrypted
                else CryptoOp.TRACE_VERIFY
            )
            yield from self.machine.charge(op)
            try:
                verify_signed_body(message.signature, body, token.token_public_key)
            except SignatureError as exc:
                self.monitor.metrics.counter("tracker.traces_bad_signature").inc()
                self.monitor.log_malformed(
                    self.sim.now,
                    exc,
                    message.source,
                    topic=message.topic.canonical,
                    entity=str(watched.topics.entity_id),
                    tracker=self.tracker_id,
                )
                return

        if message.encrypted or body.get("secured"):
            if watched.trace_key is None:
                self.monitor.metrics.counter("tracker.traces_no_key_yet").inc()
                return
            yield from self.machine.charge(CryptoOp.SECURE_UNWRAP)
            try:
                body = unwrap_trace_body(body, watched.trace_key)
            except DecryptionError:
                self.monitor.metrics.counter("tracker.traces_undecryptable").inc()
                return

        try:
            trace = TraceBody.from_dict(body)
        except MalformedFrameError:
            self.monitor.metrics.counter("tracker.traces_malformed").inc()
            return
        trace_type, origin = trace.trace_type, trace.origin_stamp_ms
        session_key, seq = trace.session, trace.seq

        # gap detection: a jump in the session-scoped sequence number means
        # traces were lost in transit (possible on unreliable transports)
        if session_key is not None and seq is not None:
            last = self._last_seq.get(session_key)
            if last is not None and seq > last + 1:
                self.monitor.metrics.counter("tracker.traces_missed").inc(seq - last - 1)
            if last is None or seq > last:
                self._last_seq[session_key] = seq

        now = self.machine.now()
        latency = (now - origin) if origin is not None else None
        received = ReceivedTrace(
            trace_type=trace_type,
            entity_id=trace.entity_id,
            received_ms=now,
            latency_ms=latency,
            payload=trace.payload,
        )
        self.received.append(received)
        metrics = self.monitor.metrics
        detail = trace_type.value.lower()
        metrics.counter("tracker.traces.received").inc()
        metrics.counter(f"tracker.traces_received.{detail}").inc()
        if latency is not None:
            metrics.histogram("tracker.trace.latency_ms").observe(latency)
            metrics.histogram(f"tracker.trace.latency_ms.{detail}").observe(latency)
        if self.on_trace is not None:
            self.on_trace(received)

    # ------------------------------------------------------------------- misc

    def traces_of_type(self, trace_type: TraceType) -> list[ReceivedTrace]:
        return [t for t in self.received if t.trace_type is trace_type]

    def latencies(self, trace_type: TraceType | None = None) -> list[float]:
        return [
            t.latency_ms
            for t in self.received
            if t.latency_ms is not None
            and (trace_type is None or t.trace_type is trace_type)
        ]

    def trace_key_for(self, entity_id: str) -> SymmetricKey | None:
        watched = self._watched.get(entity_id)
        return watched.trace_key if watched else None

    def __repr__(self) -> str:
        return f"<Tracker {self.tracker_id} watching {sorted(self._watched)}>"
