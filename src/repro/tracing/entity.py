"""The traced entity (sections 3.1-3.2, 4.3, 5.1, 6.3).

Lifecycle:

1. create the trace topic at the TDN (signed creation request),
2. discover a valid broker and connect,
3. register for tracing over the Registration constrained topic (signed),
4. receive the sealed registration response (session id),
5. delegate publication: generate the authorization token and hand the
   token plus its private key to the broker, sealed,
6. optionally establish a secret trace key (confidentiality, section 5.1)
   and/or a symmetric channel key (signing-cost optimization, section 6.3),
7. answer pings and report state transitions / load until shutdown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.auth.credentials import EntityCredentials
from repro.auth.tokens import AuthorizationToken, TokenRights
from repro.crypto.costmodel import CryptoOp
from repro.crypto.keys import SymmetricKey
from repro.crypto.rsa import RSAPrivateKey, RSAPublicKey
from repro.crypto.signing import SealedPayload, open_sealed, seal_for
from repro.errors import (
    DecryptionError,
    MalformedFrameError,
    RegistrationError,
    ValidationError,
)
from repro.messaging.broker_network import BrokerNetwork
from repro.messaging.message import Message
from repro.sim.engine import Event, Simulator
from repro.sim.machine import Machine
from repro.sim.monitor import Monitor
from repro.tdn.advertisement import TopicCreationRequest, TopicRenewal
from repro.tdn.node import TDNCluster
from repro.tdn.query import DiscoveryRestrictions, trace_descriptor
from repro.tracing.pings import Ping, PingResponse
from repro.tracing.registration import (
    RegistrationClaim,
    RegistrationError_Response,
    RegistrationResponse,
    TraceRegistrationRequest,
)
from repro.tracing.topics import REGISTRATION_TOPIC, TraceTopicSet
from repro.tracing.traces import EntityState, VALID_TRANSITIONS, LoadInformation
from repro.util.identifiers import EntityId, SequenceCounter, SessionId
from repro.util.serialization import Canonical, canonical_encode, wire_record

#: Default trace-topic lifetime: one hour.
DEFAULT_TOPIC_LIFETIME_MS = 3_600_000.0
#: Default authorization-token validity: kept short per section 4.3.
DEFAULT_TOKEN_VALIDITY_MS = 600_000.0
#: Default wait for a registration response before the request is resent.
DEFAULT_REGISTRATION_TIMEOUT_MS = 10_000.0
#: Default registration attempts before startup fails (section 3.2).
DEFAULT_REGISTRATION_ATTEMPTS = 3


# -- entity->broker session messages: each carries ``stamp_ms``, its send
# time; signed, or once a channel key is shared (§6.3) inside a SymFrame.


@wire_record("state_transition")
class StateReport:
    """The entity's state machine moved (section 3.3)."""

    state: EntityState
    stamp_ms: float | None = None


@wire_record("load")
class LoadReport:
    """Load at the entity's host (section 3.3)."""

    load: LoadInformation
    stamp_ms: float | None = None


@wire_record("disable_tracing")
class DisableTracing:
    """The entity reverts to silent mode (section 3.3)."""

    stamp_ms: float | None = None


@dataclass(frozen=True, slots=True)
class _SealedControl:
    """A control payload sealed to the hosting broker's key."""

    sealed: SealedPayload
    stamp_ms: float | None = None


@wire_record("token_delivery")
class TokenDelivery(_SealedControl):
    """Section 4.3: a sealed :class:`TokenDeliveryPayload`."""


@wire_record("trace_key")
class TraceKeyDelivery(_SealedControl):
    """Section 5.1: the sealed secret trace key."""


@wire_record("channel_key")
class ChannelKeyDelivery(_SealedControl):
    """Section 6.3: the sealed entity<->broker channel key."""


@wire_record("sym")
class SymFrame:
    """Section 6.3: a session message's mapping encrypted under the channel key."""

    ciphertext: bytes


@wire_record()
class TokenDeliveryPayload:
    """What a TokenDelivery seals: the token and its key's private half."""

    token: AuthorizationToken
    token_private: RSAPrivateKey


class TracedEntity:
    """An entity that has requested to be traced."""

    def __init__(
        self,
        sim: Simulator,
        entity_id: EntityId | str,
        network: BrokerNetwork,
        machine: Machine,
        credentials: EntityCredentials,
        tdn: TDNCluster,
        monitor: Monitor,
        restrictions: DiscoveryRestrictions | None = None,
        secured: bool = False,
        use_symmetric_channel: bool = False,
    ) -> None:
        self.sim = sim
        self.entity_id = (
            entity_id if isinstance(entity_id, EntityId) else EntityId(entity_id)
        )
        self.network = network
        self.machine = machine
        self.credentials = credentials
        self.tdn = tdn
        self.monitor = monitor
        self.restrictions = restrictions or DiscoveryRestrictions.open_to_authenticated()
        self.secured = secured
        self.use_symmetric_channel = use_symmetric_channel
        self.topic_lifetime_ms = DEFAULT_TOPIC_LIFETIME_MS
        self.token_validity_ms = DEFAULT_TOKEN_VALIDITY_MS
        self.registration_timeout_ms = DEFAULT_REGISTRATION_TIMEOUT_MS
        self.registration_attempts = DEFAULT_REGISTRATION_ATTEMPTS

        self.state = EntityState.INITIALIZING
        self.advertisement = None
        self.topics: TraceTopicSet | None = None
        self.session_id: SessionId | None = None
        self.broker_public_key: RSAPublicKey | None = None
        self.token: AuthorizationToken | None = None
        self.trace_key: SymmetricKey | None = None
        self.channel_key: SymmetricKey | None = None

        self.client = None
        self._requests = SequenceCounter()
        self._crashed = False
        self._silent = False
        self._registration_event: Event | None = None

    # ------------------------------------------------------------------ lifecycle

    def start(self, broker_id: str, transport_profile=None):
        """Spawn the full startup protocol; returns the Process (joinable)."""
        return self.sim.process(
            self.run_startup(broker_id, transport_profile),
            name=f"entity.{self.entity_id}.startup",
        )

    def start_discovered(self, discovery, policy=None, transport_profile=None):
        """Spawn startup using the broker discovery service (Ref [3]).

        ``discovery`` is a
        :class:`~repro.messaging.discovery.BrokerDiscoveryService`;
        ``policy`` a :class:`~repro.messaging.discovery.PlacementPolicy`
        (round-robin by default).
        """
        return self.sim.process(
            self._run_startup_discovered(discovery, policy, transport_profile),
            name=f"entity.{self.entity_id}.startup",
        )

    def _run_startup_discovered(
        self, discovery, policy, transport_profile
    ) -> Generator[Event, None, SessionId]:
        from repro.messaging.discovery import PlacementPolicy

        broker = yield from discovery.discover(
            policy or PlacementPolicy.ROUND_ROBIN
        )
        session = yield from self.run_startup(broker.broker_id, transport_profile)
        return session

    def run_startup(
        self, broker_id: str, transport_profile=None
    ) -> Generator[Event, None, SessionId]:
        """Process body: create topic, connect, register, delegate."""
        yield from self.create_trace_topic()
        self.connect(broker_id, transport_profile)
        yield from self._register_and_delegate()
        yield from self.report_state(EntityState.READY)
        assert self.session_id is not None
        return self.session_id

    def create_trace_topic(self) -> Generator[Event, None, None]:
        """Step 1: signed topic-creation request to the TDN (section 3.1)."""
        request = TopicCreationRequest(
            credentials=self.credentials.certificate,
            descriptor=trace_descriptor(self.entity_id),
            restrictions=self.restrictions,
            lifetime_ms=self.topic_lifetime_ms,
            request_id=self._requests.next_request_id(),
        )
        yield from self.machine.charge(CryptoOp.TRACE_SIGN)
        signature = self.credentials.sign(request.to_dict())
        self.advertisement = yield from self.tdn.create_topic(request, signature)
        self.topics = TraceTopicSet(
            trace_topic=self.advertisement.fields.trace_topic, entity_id=self.entity_id
        )
        self.monitor.metrics.counter("entity.topics_created").inc()

    def connect(self, broker_id: str, transport_profile=None) -> None:
        """Step 2-3: connect a client to the (discovered) broker."""
        self.client = self.network.add_client(
            str(self.entity_id), machine_name=self.machine.name
        )
        self.network.connect_client(self.client, broker_id, transport_profile)

    def register(self) -> Generator[Event, None, None]:
        """Step 4-5: the registration exchange of section 3.2.

        Retried up to ``registration_attempts`` times: the request or its
        response can be lost on unreliable transports, and a silent broker
        is indistinguishable from a lost message.
        """
        if self.topics is None or self.client is None or self.advertisement is None:
            raise RegistrationError("must create topic and connect before registering")

        message: Message | None = None
        for attempt in range(self.registration_attempts):
            request_id = self._requests.next_request_id()
            claim = RegistrationClaim(
                self.entity_id,
                self.credentials.certificate.fingerprint(),
                self.advertisement.fields.trace_topic,
                request_id,
            )
            yield from self.machine.charge(CryptoOp.TRACE_SIGN)
            signature = self.credentials.sign(claim.to_dict())
            request = TraceRegistrationRequest(
                entity_id=self.entity_id,
                credentials=self.credentials.certificate,
                advertisement=self.advertisement,
                request_id=request_id,
                signature=signature,
            )

            # listen for the response before sending the request
            response_topic = self.topics.registration_response(
                self.entity_id, request_id.value
            )
            self._registration_event = self.sim.event("registration_response")
            self.client.subscribe(response_topic, self._on_registration_response)

            self.client.publish(REGISTRATION_TOPIC, request.to_dict())
            self.monitor.metrics.counter("entity.registrations_sent").inc()

            outcome = self.sim.any_of(
                [
                    self._registration_event,
                    self.sim.timeout(self.registration_timeout_ms),
                ]
            )
            index, value = yield outcome
            self.client.unsubscribe(response_topic)
            if index == 0:
                message = value
                break
            self.monitor.metrics.counter("entity.registration_retries").inc()
        if message is None:
            raise RegistrationError(
                f"registration of {self.entity_id} timed out after "
                f"{self.registration_attempts} attempts"
            )
        try:
            rejection = RegistrationError_Response.from_dict(message.body)
        except MalformedFrameError:
            pass  # not a rejection: the sealed response, or unreadable
        else:
            raise RegistrationError(f"broker rejected registration: {rejection.error}")
        yield from self.machine.charge(CryptoOp.OPEN_SEALED)
        try:
            response = RegistrationResponse.from_dict(
                open_sealed(
                    SealedPayload.from_dict(message.body), self.credentials.keys.private
                )
            )
        except (DecryptionError, MalformedFrameError) as exc:
            raise RegistrationError(f"unreadable registration response: {exc}") from exc
        if response.request_id != request_id:
            raise RegistrationError("response correlates to a different request")
        self.session_id = response.session_id
        self.broker_public_key = response.broker_public_key
        self.monitor.metrics.counter("entity.registered").inc()

        # subscribe to the broker->entity session topic for pings
        self.client.subscribe(
            self.topics.broker_to_entity(self.session_id), self._on_broker_message
        )

    def _register_and_delegate(self) -> Generator[Event, None, None]:
        """Register, deliver a fresh token, and establish the keys in use."""
        yield from self.register()
        yield from self.deliver_token()
        if self.use_symmetric_channel:
            yield from self.establish_channel_key()
        if self.secured:
            yield from self.establish_trace_key()

    def _on_registration_response(self, message: Message) -> None:
        if self._registration_event is not None and not self._registration_event.triggered:
            self._registration_event.succeed(message)

    # ------------------------------------------------------- delegation & keys

    def deliver_token(self) -> Generator[Event, None, None]:
        """Step 5: generate the authorization token and seal it to the broker.

        Called again before the token expires, it is the near-expiry
        renewal of section 4.3: the broker signs with the newest token.
        """
        self._require_session()
        yield from self.machine.charge(CryptoOp.TOKEN_GENERATE_AND_SIGN)
        token, token_private = AuthorizationToken.create(
            advertisement=self.advertisement,
            owner_private_key=self.credentials.keys.private,
            rights=TokenRights.PUBLISH,
            now_ms=self.machine.now(),
            duration_ms=self.token_validity_ms,
            rng=self.machine.rng,
        )
        self.token = token
        yield from self._send_sealed(
            TokenDelivery, TokenDeliveryPayload(token, token_private).to_dict()
        )
        self.monitor.metrics.counter("entity.tokens_delivered").inc()

    def renew_topic(
        self, additional_lifetime_ms: float
    ) -> Generator[Event, None, None]:
        """Extend the trace topic's lifetime at the TDN before it expires."""
        if self.advertisement is None:
            raise RegistrationError("no trace topic to renew")
        fields = self.advertisement.fields
        renewal = TopicRenewal(
            fields.trace_topic, fields.lifetime.duration_ms, additional_lifetime_ms
        )
        yield from self.machine.charge(CryptoOp.TRACE_SIGN)
        signature = self.credentials.sign(renewal.to_dict())
        self.advertisement = yield from self.tdn.renew_topic(renewal, signature)
        self.monitor.metrics.counter("entity.topics_renewed").inc()

    def establish_trace_key(self) -> Generator[Event, None, None]:
        """Section 5.1: generate the secret trace key and send it securely."""
        self._require_session()
        yield from self.machine.charge(CryptoOp.SYM_KEYGEN)
        self.trace_key = SymmetricKey.generate(self.machine.rng)
        yield from self._send_sealed(TraceKeyDelivery, self.trace_key.to_dict())
        self.monitor.metrics.counter("entity.trace_keys_established").inc()

    def establish_channel_key(self) -> Generator[Event, None, None]:
        """Section 6.3: shared symmetric key replacing per-message signing."""
        self._require_session()
        yield from self.machine.charge(CryptoOp.SYM_KEYGEN)
        self.channel_key = SymmetricKey.generate(self.machine.rng)
        yield from self._send_sealed(ChannelKeyDelivery, self.channel_key.to_dict())
        self.monitor.metrics.counter("entity.channel_keys_established").inc()

    def _send_sealed(self, control: type, payload: dict) -> Generator[Event, None, None]:
        """Seal a control payload to the broker and send it, signed."""
        if self.broker_public_key is None:
            raise RegistrationError("no broker public key (not registered)")
        yield from self.machine.charge(CryptoOp.SEAL_PAYLOAD)
        sealed = seal_for(payload, self.broker_public_key, self.machine.rng)
        yield from self._send_session_message(
            control(sealed, stamp_ms=self.machine.now()), force_sign=True
        )

    # ------------------------------------------------------------- session traffic

    def _send_session_message(
        self, message, force_sign: bool = False
    ) -> Generator[Event, None, None]:
        """Authenticate and publish one session message on the entity->broker topic.

        Default authentication is a signature (section 4.2); with the 6.3
        optimization active (and not forced), the message is instead
        encrypted under the shared channel key — cheaper by ~24 ms per message.
        """
        self._require_session()
        topic = self.topics.entity_to_broker(self.session_id)
        body = message.to_dict()
        if self.channel_key is not None and not force_sign:
            yield from self.machine.charge(CryptoOp.TRACE_ENCRYPT)
            frame = SymFrame(self.channel_key.encrypt(canonical_encode(body), self.machine.rng))
            self.client.publish(topic, frame.to_dict(), encrypted=True)
        else:
            yield from self.machine.charge(CryptoOp.TRACE_SIGN)
            signed = Canonical.of(body)
            envelope = self.credentials.sign(signed)
            self.client.publish(topic, signed, signature=envelope.to_dict())

    def _on_broker_message(self, message: Message) -> None:
        """Pings (and future broker-initiated control) arrive here."""
        body = message.body
        kind = body.get("kind") if isinstance(body, dict) else None
        if kind != "ping" or self._crashed or self._silent:
            return
        try:
            ping = Ping.from_dict(body)
        except MalformedFrameError:
            self.monitor.metrics.counter("entity.pings_malformed").inc()
            return
        self.sim.process(
            self._answer_ping(ping), name=f"entity.{self.entity_id}.pong"
        )

    def _answer_ping(self, ping: Ping) -> Generator[Event, None, None]:
        now = self.machine.now()
        response = PingResponse(
            number=ping.number, issued_ms=ping.issued_ms, entity_stamp_ms=now, stamp_ms=now
        )
        yield from self._send_session_message(response)
        self.monitor.metrics.counter("entity.pings_answered").inc()

    # ------------------------------------------------------------------- reports

    def report_state(self, new_state: EntityState) -> Generator[Event, None, None]:
        """Transition the state machine and notify the broker (section 3.3)."""
        if new_state is not self.state:
            if new_state not in VALID_TRANSITIONS[self.state]:
                raise ValidationError(
                    f"illegal transition {self.state.value} -> {new_state.value}"
                )
            self.state = new_state
        yield from self._send_session_message(StateReport(new_state, self.machine.now()))
        self.monitor.metrics.counter("entity.state_reports").inc()

    def report_load(self, load: LoadInformation) -> Generator[Event, None, None]:
        """Report host load (section 3.3)."""
        yield from self._send_session_message(LoadReport(load, self.machine.now()))
        self.monitor.metrics.counter("entity.load_reports").inc()

    def disable_tracing(self) -> Generator[Event, None, None]:
        """Revert to silent mode; the broker announces and stops pinging."""
        yield from self._send_session_message(DisableTracing(self.machine.now()))
        self._silent = True
        self.monitor.metrics.counter("entity.silent_mode").inc()

    def shutdown(self) -> Generator[Event, None, None]:
        """Graceful shutdown: report SHUTDOWN, then go silent."""
        yield from self.report_state(EntityState.SHUTDOWN)
        self._silent = True

    # ------------------------------------------------------------------ failures

    def crash(self) -> None:
        """Simulate abrupt failure: stop answering pings immediately."""
        self._crashed = True

    def recover_from_crash(self) -> None:
        """Come back after a crash (the broker may already have FAILED us;
        a really-failed entity re-registers — see section 3.2)."""
        self._crashed = False

    def reregister(self) -> Generator[Event, None, SessionId]:
        """Run the registration protocol again on the current connection.

        Used after the hosting broker declared this entity FAILED: a fresh
        session supersedes the dead one, a fresh token is delegated, and
        any confidentiality/channel keys are re-established.  The trace
        topic (and therefore every tracker subscription) is unchanged.
        """
        self._crashed = False
        self._silent = False
        yield from self._register_and_delegate()
        if self.state is not EntityState.READY:
            yield from self.report_state(EntityState.READY)
        else:
            yield from self.report_state(EntityState.RECOVERING)
            yield from self.report_state(EntityState.READY)
        assert self.session_id is not None
        return self.session_id

    def migrate(self, new_broker_id: str, transport_profile=None
                ) -> Generator[Event, None, SessionId]:
        """Move to a different broker (e.g. after the hosting broker died).

        Disconnects, re-discovers connectivity at ``new_broker_id``, and
        re-runs registration there.  Trackers keep their subscriptions:
        the publication topics derive from the trace topic, not from the
        hosting broker.
        """
        if self.client is not None:
            self.client.disconnect()
            self.network.remove_client(str(self.entity_id))
        self.connect(new_broker_id, transport_profile)
        session = yield from self.reregister()
        return session

    # --------------------------------------------------------------------- misc

    def _require_session(self) -> None:
        if self.session_id is None or self.topics is None or self.client is None:
            raise RegistrationError(f"{self.entity_id} has no active session")

    def __repr__(self) -> str:
        return f"<TracedEntity {self.entity_id} state={self.state.value}>"
