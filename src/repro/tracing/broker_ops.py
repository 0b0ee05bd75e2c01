"""Broker-side tracing operations (sections 3.2-3.5, 4, 5.1).

The :class:`TraceManager` is the component a broker runs to host traced
entities: it validates registrations, mints sessions, polls entities with
adaptively-scheduled pings, detects failures, gauges tracker interest, and
publishes typed traces over the Table 2 topics — signed with the
authorization token the entity delegated, encrypted with the secret trace
key when the entity asked for confidentiality.
"""

from __future__ import annotations

import dataclasses
from typing import Generator

from repro.auth.credentials import EntityCredentials
from repro.auth.tokens import AuthorizationToken
from repro.crypto.certificates import CertificateAuthority
from repro.crypto.costmodel import CryptoOp
from repro.crypto.keys import SymmetricKey
from repro.crypto.rsa import MIN_SIGNING_MODULUS_BYTES, RSAPrivateKey, RSAPublicKey
from repro.crypto.signing import (
    SealedPayload,
    open_sealed,
    seal_for,
    sign_payload,
    verify_payload,
    verify_signed_body,
)
from repro.errors import (
    CertificateError,
    DecryptionError,
    InterestError,
    MalformedFrameError,
    RegistrationError,
    SerializationDecodeError,
    SignatureError,
    TokenError,
    TopicError,
)
from repro.messaging.broker import Broker
from repro.messaging.message import Message
from repro.messaging.topics import Topic
from repro.security.confidentiality import wrap_trace_body
from repro.security.keydist import build_key_payload
from repro.sim.engine import Event
from repro.tracing.coalesce import PingCoalescer
from repro.tracing.failure import AdaptivePingPolicy, DetectorVerdict, FailureDetector
from repro.tracing.interest import InterestCategory, InterestRegistry
from repro.tracing.pings import PingResponse
from repro.tracing.registration import (
    RegistrationError_Response,
    RegistrationResponse,
    TraceRegistrationRequest,
)
from repro.tracing.session import TraceSession
from repro.tracing.topics import REGISTRATION_TOPIC, TraceTopicSet
from repro.tracing.traces import EntityState, LoadInformation, TraceType, category_of
from repro.util.identifiers import SessionId, UUIDGenerator
from repro.util.serialization import Fields, canonical_decode

#: Ping responses per derived NETWORK_METRICS trace.
METRICS_EVERY = 5

#: How often the broker re-gauges tracker interest.
DEFAULT_GAUGE_INTERVAL_MS = 60_000.0


class TraceManager:
    """Hosts traced entities on one broker."""

    def __init__(
        self,
        broker: Broker,
        ca: CertificateAuthority,
        tdn_public_keys: dict[str, RSAPublicKey],
        ping_policy: AdaptivePingPolicy | None = None,
        gauge_interval_ms: float = DEFAULT_GAUGE_INTERVAL_MS,
        client_locator=None,
    ) -> None:
        self.broker = broker
        self.sim = broker.sim
        self.machine = broker.machine
        self.ca = ca
        self.tdn_public_keys = dict(tdn_public_keys)
        self.monitor = broker.monitor
        self.ping_policy = ping_policy or AdaptivePingPolicy()
        self.gauge_interval_ms = gauge_interval_ms
        # assigned after construction by their one caller each
        self.interest_ttl_ms = 120_000.0
        self.detector_factory = FailureDetector
        # section 3.5 gating; disable only for the EXP-A4 ablation
        self.gate_by_interest = True
        # batch same-window pings to co-located entities into one frame;
        # client_locator maps an entity id to its host (machine name) so
        # the coalescer knows who shares a wire (docs/PERFORMANCE.md)
        self.coalescer = PingCoalescer(self, locate_host=client_locator)
        # installed by a fault controller; when present, FAILED verdicts
        # open a recovery window and successful registrations close it
        self.recovery_probe = None

        self.credentials = EntityCredentials.issue(
            f"broker-cred-{broker.broker_id}", ca, self.machine.rng
        )
        self._session_ids = UUIDGenerator(
            seed=self.machine.rng.getrandbits(64)
        )
        self.sessions: dict[str, TraceSession] = {}          # by session hex
        self.sessions_by_entity: dict[str, TraceSession] = {}

        self.broker.subscribe_local(
            REGISTRATION_TOPIC.canonical, self._on_registration_message
        )

    # ------------------------------------------------------------- registration

    def _on_registration_message(self, message: Message) -> None:
        self.sim.process(
            self._handle_registration(message),
            name=f"{self.broker.broker_id}.register",
        )

    def _handle_registration(self, message: Message) -> Generator[Event, None, None]:
        try:
            request = TraceRegistrationRequest.from_dict(message.body)
        except RegistrationError:
            self.monitor.metrics.counter("trace.registration_malformed").inc()
            return

        # Registration is an exchange between an entity and the broker it is
        # connected to; every broker subscribes to the Registration topic,
        # but only the hosting broker (the one holding the client link)
        # processes the request.
        if str(request.entity_id) not in self.broker.client_ids:
            self.monitor.metrics.counter("trace.registration_not_local").inc()
            return

        advertisement = request.advertisement
        topics = TraceTopicSet(advertisement.trace_topic, request.entity_id)
        response_topic = topics.registration_response(
            request.entity_id, request.request_id.value
        )

        reason = yield from self._registration_fault(request)
        if reason is not None:
            yield from self.machine.compute(0.1)
            error = RegistrationError_Response(request.request_id, reason)
            self._publish_plain(response_topic, error.to_dict())
            self.monitor.metrics.counter("trace.registrations_rejected").inc()
            self.monitor.journal.record(self.sim.now, "registration_rejected", reason=reason)
            return

        # a re-registration supersedes the entity's previous session: the
        # old ping loop winds down and the new session takes over (this is
        # how a recovered entity resumes tracing, section 3.2)
        previous = self.sessions_by_entity.get(str(request.entity_id))
        if previous is not None and previous.active:
            previous.active = False
            self.monitor.metrics.counter("trace.sessions_superseded").inc()

        # success: mint a session and wire the topics
        session_id = SessionId(self._session_ids.next())
        # interest continuity: trackers that were following the superseded
        # session are still subscribed (publication topics derive from the
        # trace topic), so the new session inherits their registrations
        if previous is not None:
            interest = previous.interest
        else:
            interest = InterestRegistry(ttl_ms=self.interest_ttl_ms)
        session = TraceSession(
            entity_id=request.entity_id,
            session_id=session_id,
            advertisement=advertisement,
            topics=topics,
            started_ms=self.sim.now,
            # entity messages are handled strictly in arrival order per
            # session (verification times differ per message kind, so
            # concurrent handlers could otherwise reorder, e.g. a state
            # report overtaking the token delivery it depends on)
            inbox=self.sim.queue(name=f"session-{session_id.value.hex[:8]}"),
            ping_policy=self.ping_policy,
            detector=self.detector_factory(),
            interest=interest,
        )
        session.history.metrics = self.monitor.metrics
        self.sessions[session.hex_id] = session
        self.sessions_by_entity[str(request.entity_id)] = session
        self.sim.process(
            self._session_worker(session),
            name=f"{self.broker.broker_id}.worker.{request.entity_id}",
        )

        # the broker subscribes to the entity->broker session topic ...
        self.broker.subscribe_local(
            topics.entity_to_broker(session_id).canonical,
            session.inbox.put,
        )
        # ... and to the interest-response topic (section 3.5)
        self.broker.subscribe_local(
            topics.interest_response.canonical,
            lambda msg, s=session: self._on_interest_response(s, msg),
        )

        # sealed response: only the entity can read the session id
        yield from self.machine.charge(CryptoOp.SEAL_PAYLOAD)
        response = RegistrationResponse(
            request_id=request.request_id,
            session_id=session_id,
            broker_id=self.broker.broker_id,
            broker_public_key=self.credentials.public_key,
        )
        sealed = seal_for(
            response.to_dict(), request.credentials.public_key, self.machine.rng
        )
        self._publish_plain(response_topic, sealed.to_dict())
        self.monitor.metrics.counter("trace.sessions_created").inc()
        # audit evidence: every session the counter above counts must be
        # reconstructible from the journal (repro.analytics.audit)
        self.monitor.journal.record(
            self.sim.now,
            "session.created",
            principal=str(request.entity_id),
            entity=str(request.entity_id),
            broker=self.broker.broker_id,
            session=session.hex_id[:8],
            superseded_previous=previous is not None,
        )
        if self.recovery_probe is not None:
            self.recovery_probe.mark_reregistered(
                str(request.entity_id), self.sim.now
            )

    def _registration_fault(
        self, request: TraceRegistrationRequest
    ) -> Generator[Event, None, str | None]:
        """Run the section 3.2 checks: why the request fails, or None.

        The reason rides the wire in the rejection, and its length feeds
        simulated latency, so the strings are part of the protocol.
        """
        # 1. credentials must verify against the trust anchor
        yield from self.machine.charge(CryptoOp.CERT_VERIFY)
        try:
            self.ca.verify(request.credentials, now_ms=self.machine.now())
        except CertificateError as exc:
            return str(exc)

        # 2. proof of possession: the signature must decrypt with the
        #    entity's public key and match the message digest (section 3.2)
        yield from self.machine.charge(CryptoOp.TRACE_VERIFY)
        if request.signature.payload != request.expected_payload():
            return "signature covers different fields"
        try:
            verify_payload(request.signature, request.credentials.public_key)
        except SignatureError as exc:
            return str(exc)

        # 3. the advertisement must be TDN-signed and owned by the requester
        yield from self.machine.charge(CryptoOp.CERT_VERIFY)
        advertisement = request.advertisement
        try:
            advertisement.verify_provenance(self.tdn_public_keys)
        except SignatureError as exc:
            return str(exc)
        if advertisement.owner_subject != request.credentials.subject:
            return "trace topic owned by another entity"
        if not advertisement.lifetime.alive_at(self.machine.now()):
            return "trace topic lifetime expired"
        return None

    def _publish_plain(self, topic: Topic, body: dict) -> None:
        message = Message(
            topic=topic,
            body=body,
            source=self.broker.broker_id,
            created_ms=self.machine.now(),
        )
        self.broker.publish_from_broker(message)

    # --------------------------------------------------------- entity messages

    def _session_worker(self, session: TraceSession) -> Generator[Event, None, None]:
        """FIFO handler loop for one session's entity messages."""
        while True:
            message = yield session.inbox.get()
            body = yield from self._authenticate_entity_message(session, message)
            if body is None:
                self.monitor.metrics.counter("trace.entity_messages_rejected").inc()
                continue
            kind = body.get("kind")
            if kind == "ping_response":
                yield from self._handle_ping_response(session, body)
            elif kind == "state_transition":
                yield from self._handle_state_report(session, body)
            elif kind == "load":
                yield from self._handle_load_report(session, body)
            elif kind == "token_delivery":
                yield from self._handle_token_delivery(session, message, body)
            elif kind == "trace_key" or kind == "channel_key":
                yield from self._handle_symmetric_key(session, kind, body)
            elif kind == "disable_tracing":
                yield from self._handle_disable(session)
            else:
                self.monitor.metrics.counter("trace.entity_messages_unknown").inc()

    def _authenticate_entity_message(
        self, session: TraceSession, message: Message
    ) -> Generator[Event, None, dict | None]:
        """Verify source and tamper-evidence of an entity-initiated message.

        Two modes: a signature verified against the trace-topic owner's key
        (section 4.2), or — with the 6.3 optimization — decryption under
        the shared channel key, whose success is itself proof of origin.
        """
        body = message.body
        if isinstance(body, dict) and body.get("kind") == "sym":
            if session.channel_key is None:
                return None
            yield from self.machine.charge(CryptoOp.TRACE_DECRYPT)
            try:
                ciphertext = Fields(body, "sym frame").octets("ciphertext")
                decoded = canonical_decode(session.channel_key.decrypt(ciphertext))
            except (DecryptionError, MalformedFrameError, SerializationDecodeError):
                return None
            return decoded if isinstance(decoded, dict) else None

        if message.signature is None or not isinstance(body, dict):
            return None
        yield from self.machine.charge(CryptoOp.TRACE_VERIFY)
        try:
            owner_key = session.advertisement.owner_public_key
            if not verify_signed_body(message.signature, body, owner_key):
                return None
        except SignatureError as exc:
            self._log_malformed(exc, session, message)
            return None
        return body

    def _log_malformed(
        self, exc: Exception, session: TraceSession, message: Message
    ) -> None:
        self.monitor.log_malformed(
            self.sim.now,
            exc,
            message.source,
            entity=str(session.entity_id),
            broker=self.broker.broker_id,
            session=session.hex_id[:8],
        )

    # ------------------------------------------------------------ message kinds

    def _open_sealed_control(self, body: dict) -> Generator[Event, None, dict | None]:
        yield from self.machine.charge(CryptoOp.OPEN_SEALED)
        try:
            sealed = SealedPayload.from_dict(body.get("sealed"))
            payload = open_sealed(sealed, self.credentials.keys.private)
        except (DecryptionError, MalformedFrameError):
            self.monitor.metrics.counter("trace.sealed_control_rejected").inc()
            return None
        return payload if isinstance(payload, dict) else None

    def _handle_token_delivery(
        self, session: TraceSession, message: Message, body: dict
    ) -> Generator[Event, None, None]:
        payload = yield from self._open_sealed_control(body)
        if payload is None:
            return
        try:
            token, token_private = _read_token_delivery(payload)
        except MalformedFrameError as exc:
            self.monitor.metrics.counter("trace.token_delivery_malformed").inc()
            self._log_malformed(exc, session, message)
            return
        first_token = session.token is None
        session.token = token
        session.token_private_key = token_private
        self.monitor.metrics.counter("trace.tokens_received").inc()
        if first_token:
            # the very first registration triggers the JOIN trace and the
            # ping + gauge loops (section 3.3, 3.5)
            yield from self.publish_trace(
                session, TraceType.JOIN, {"entity_id": str(session.entity_id)},
                force=True,
            )
            self.sim.process(
                self._ping_loop(session),
                name=f"{self.broker.broker_id}.ping.{session.entity_id}",
            )
            self.sim.process(
                self._gauge_loop(session),
                name=f"{self.broker.broker_id}.gauge.{session.entity_id}",
            )

    def _handle_symmetric_key(
        self, session: TraceSession, kind: str, body: dict
    ) -> Generator[Event, None, None]:
        """Install a sealed ``trace_key`` (§5.1) or ``channel_key`` (§6.3).

        Counted as ``trace.<kind>s_received`` / ``trace.<kind>_malformed``.
        """
        payload = yield from self._open_sealed_control(body)
        if payload is None:
            return
        try:
            setattr(session, kind, SymmetricKey.from_dict(payload))
        except MalformedFrameError:
            self.monitor.metrics.counter(f"trace.{kind}_malformed").inc()
            return
        self.monitor.metrics.counter(f"trace.{kind}s_received").inc()

    def _handle_ping_response(
        self, session: TraceSession, body: dict
    ) -> Generator[Event, None, None]:
        try:
            response = PingResponse.from_dict(body)
        except MalformedFrameError:
            self.monitor.metrics.counter("trace.ping_responses_malformed").inc()
            return
        matched = session.history.record_response(response, self.machine.now())
        if not matched:
            self.monitor.metrics.counter("trace.ping_responses_unmatched").inc()
            return
        self.monitor.metrics.counter("trace.ping_responses").inc()

        # a response clears suspicion
        if session.suspicion_announced and session.detector.verdict is not DetectorVerdict.FAILED:
            session.suspicion_announced = False

        yield from self.publish_trace(
            session,
            TraceType.ALLS_WELL,
            {
                "ping_number": response.number,
                "rtt_ms": self.machine.now() - response.issued_ms,
            },
            origin_stamp_ms=response.entity_stamp_ms,
        )

        session.response_count += 1
        if session.response_count % METRICS_EVERY == 0:
            metrics = session.history.network_metrics(
                self.machine.now(), self.ping_policy.response_deadline_ms
            )
            if metrics is not None:
                yield from self.publish_trace(
                    session, TraceType.NETWORK_METRICS, metrics.to_dict()
                )

    def _handle_state_report(
        self, session: TraceSession, body: dict
    ) -> Generator[Event, None, None]:
        try:
            fields = Fields(body, "state report")
            state = fields.member("state", EntityState)
            stamp_ms = fields.number("stamp_ms", None)
        except MalformedFrameError:
            self.monitor.metrics.counter("trace.state_reports_malformed").inc()
            return
        session.entity_state = state
        yield from self.publish_trace(
            session,
            TraceType.for_state(state),
            {"state": state.value},
            origin_stamp_ms=stamp_ms,
        )
        if state is EntityState.SHUTDOWN:
            session.active = False

    def _handle_load_report(
        self, session: TraceSession, body: dict
    ) -> Generator[Event, None, None]:
        try:
            load = LoadInformation.from_dict(body.get("load"))
            stamp_ms = Fields(body, "load report").number("stamp_ms", None)
        except MalformedFrameError:
            self.monitor.metrics.counter("trace.load_reports_malformed").inc()
            return
        yield from self.publish_trace(
            session,
            TraceType.LOAD_INFORMATION,
            load.to_dict(),
            origin_stamp_ms=stamp_ms,
        )

    def _handle_disable(self, session: TraceSession) -> Generator[Event, None, None]:
        session.active = False
        yield from self.publish_trace(
            session,
            TraceType.REVERTING_TO_SILENT_MODE,
            {"entity_id": str(session.entity_id)},
            force=True,
        )

    def handle_client_disconnect(self, entity_id: str) -> None:
        """Announce a dropped entity connection with a DISCONNECT trace."""
        session = self.sessions_by_entity.get(entity_id)
        if session is None or not session.active:
            return
        session.active = False
        self.sim.process(
            self.publish_trace(
                session, TraceType.DISCONNECT, {"entity_id": entity_id}, force=True
            ),
            name=f"{self.broker.broker_id}.disconnect",
        )

    def handle_broker_restart(self) -> None:
        """Reset per-session windowed state after this broker's crash heals.

        The broker object survives a simulated crash/restart, but every
        ping record, answered-watermark and suspicion verdict in it
        describes the dead incarnation.  Without this reset the stale
        unanswered records count as trailing misses the moment the loop
        thaws, and the old watermark misclassifies the first fresh
        responses — the restart bug this method and
        ``PingHistory.reset_incarnation`` exist to fix.
        """
        for session in self.active_sessions():
            session.history.reset_incarnation()
            if not session.declared_failed:
                session.detector.reset()
                session.suspicion_announced = False

    # ------------------------------------------------------------------ pinging

    def _ping_loop(self, session: TraceSession) -> Generator[Event, None, None]:
        """Poll the entity until shutdown, silent mode, or declared failure."""
        deadline = self.ping_policy.response_deadline_ms
        # random initial phase: colocated sessions must not ping in lockstep
        # (their registration times are often harmonically related)
        yield self.sim.timeout(self.machine.rng.uniform(0.0, session.current_interval_ms))
        while session.active and not session.declared_failed:
            if self.broker.failed:
                # the broker process is down: a dead host issues no pings
                # and judges no misses.  Idle until the fabric recovers us;
                # handle_broker_restart() clears the stale window then.
                yield self.sim.timeout(session.current_interval_ms)
                continue
            # hand the due ping to the coalescer and sleep until its
            # flush; the flush (scheduled first, so it fires first on
            # the tie) issues, records and numbers the ping for us
            delay = self.coalescer.submit(session)
            if delay > 0.0:
                yield self.sim.timeout(delay)
            if not session.active or session.declared_failed:
                break
            if self.broker.failed:
                # died inside the flush window: nothing was issued
                continue

            # wait until this ping can be judged, but never longer than the
            # ping interval itself (a deadline above the interval must not
            # slow the cadence; young in-flight pings are simply skipped by
            # the miss counter)
            judge_wait = min(deadline, session.current_interval_ms)
            yield self.sim.timeout(judge_wait)
            if not session.active:
                break
            if self.broker.failed:
                # crashed between issuing the ping and judging it — the
                # response (if any) was dropped by the dead broker, so
                # judging now would count phantom misses
                continue
            now = self.machine.now()
            misses = session.history.consecutive_misses(now, deadline)
            verdict = session.detector.judge(misses)

            if verdict is DetectorVerdict.SUSPECT and not session.suspicion_announced:
                session.suspicion_announced = True
                yield from self.publish_trace(
                    session,
                    TraceType.FAILURE_SUSPICION,
                    {"entity_id": str(session.entity_id), "missed_pings": misses},
                )
                self.monitor.journal.record(
                    self.sim.now, "failure_suspicion", entity=str(session.entity_id)
                )
            elif verdict is DetectorVerdict.FAILED:
                session.declared_failed = True
                session.active = False
                # detection latency: time from the last sign of life (or
                # session start, if the entity never answered) to the
                # declaration — the Figure 5 quantity
                last_alive = session.history.last_response_ms()
                if last_alive is None:
                    last_alive = session.started_ms
                self.monitor.metrics.histogram(
                    "tracker.detection.latency_ms"
                ).observe(now - last_alive)
                if self.recovery_probe is not None:
                    self.recovery_probe.mark_detected(
                        str(session.entity_id), now, cause="failed_verdict"
                    )
                yield from self.publish_trace(
                    session,
                    TraceType.FAILED,
                    {"entity_id": str(session.entity_id), "missed_pings": misses},
                )
                self.monitor.journal.record(
                    self.sim.now, "failure_declared", entity=str(session.entity_id)
                )
                break

            session.current_interval_ms = self.ping_policy.next_interval_ms(
                session.current_interval_ms,
                session.history,
                session.active_duration_ms(now),
                now,
            )
            remaining = max(0.0, session.current_interval_ms - judge_wait)
            if remaining:
                # no timer jitter here: the coalescer's flush slack absorbs
                # scheduler drift, and phase lock is *wanted* — same-interval
                # sessions flushed together stay merged and keep sharing one
                # wire frame
                yield self.sim.timeout(remaining)

    # ----------------------------------------------------------- interest (3.5)

    def _gauge_loop(self, session: TraceSession) -> Generator[Event, None, None]:
        while session.active and not session.declared_failed:
            yield from self.gauge_interest(session)
            yield self.sim.timeout(self.gauge_interval_ms)

    def gauge_interest(self, session: TraceSession) -> Generator[Event, None, None]:
        """Publish one GUAGE_INTEREST request (token attached, §5.1 flag)."""
        yield from self.publish_trace(
            session,
            TraceType.GUAGE_INTEREST,
            {"secured": session.secured, "entity_id": str(session.entity_id)},
            force=True,
        )

    def _on_interest_response(self, session: TraceSession, message: Message) -> None:
        self.sim.process(
            self._handle_interest_response(session, message),
            name=f"{self.broker.broker_id}.interest",
        )

    def _handle_interest_response(
        self, session: TraceSession, message: Message
    ) -> Generator[Event, None, None]:
        body = message.body
        if message.signature is None:
            self.monitor.metrics.counter("trace.interest_unsigned").inc()
            return
        yield from self.machine.charge(CryptoOp.TRACE_VERIFY)
        try:
            with Fields(body, "interest response") as fields:
                cred = Fields(fields.value("credentials"), "interest credentials")
                tracker_key = RSAPublicKey(cred.integer("n"), cred.integer("e"))
            if not verify_signed_body(message.signature, body, tracker_key):
                self.monitor.metrics.counter("trace.interest_tampered").inc()
                return
        except (MalformedFrameError, SignatureError) as exc:
            self.monitor.metrics.counter("trace.interest_bad_signature").inc()
            self._log_malformed(exc, session, message)
            return
        try:
            categories = InterestCategory.parse_many(fields.texts("categories"))
            tracker_id = fields.text("tracker_id")
            response_topic = fields.text("response_topic", None)
            key_topic = Topic.parse(response_topic) if response_topic else None
            subject = cred.text("subject", "")
        except (MalformedFrameError, InterestError, TopicError):
            self.monitor.metrics.counter("trace.interest_malformed").inc()
            return

        session.interest.record(
            tracker_id,
            categories,
            self.machine.now(),
            response_topic=response_topic,
            credential_subject=subject,
        )
        self.monitor.metrics.counter("trace.interest_recorded").inc()

        # secured sessions: distribute the trace key once per tracker (§5.1)
        unkeyed = session.secured and tracker_id not in session.keyed_trackers
        if unkeyed and key_topic is not None:
            session.keyed_trackers.add(tracker_id)
            yield from self._distribute_trace_key(session, tracker_id, tracker_key, key_topic)

    def _distribute_trace_key(
        self,
        session: TraceSession,
        tracker_id: str,
        tracker_key: RSAPublicKey,
        key_topic: Topic,
    ) -> Generator[Event, None, None]:
        yield from self.machine.charge(CryptoOp.CERT_VERIFY)
        yield from self.machine.charge(CryptoOp.SEAL_PAYLOAD)
        payload = build_key_payload(
            session.trace_key,
            session.advertisement.trace_topic.hex,
            tracker_key,
            self.machine.rng,
        )
        self._publish_plain(key_topic, payload.to_dict())
        self.monitor.metrics.counter("trace.keys_distributed").inc()
        # audit evidence for the key hand-off (repro.analytics.audit)
        self.monitor.journal.record(
            self.machine.now(),
            "key.distributed",
            principal=str(session.entity_id),
            entity=str(session.entity_id),
            broker=self.broker.broker_id,
            tracker=tracker_id,
        )

    # --------------------------------------------------------------- publication

    def publish_trace(
        self,
        session: TraceSession,
        trace_type: TraceType,
        payload: dict,
        origin_stamp_ms: float | None = None,
        force: bool = False,
    ) -> Generator[Event, None, None]:
        """Sign (and optionally encrypt) one trace and publish it.

        ``force`` bypasses interest gating for bootstrap/lifecycle traces
        (JOIN, GUAGE_INTEREST, DISCONNECT, REVERTING_TO_SILENT_MODE).
        """
        if session.token is None or session.token_private_key is None:
            self.monitor.metrics.counter("trace.publish_without_token").inc()
            return
        now = self.machine.now()
        if session.token.expired(now):
            self.monitor.metrics.counter("trace.token_expired").inc()
            return
        gated = not force and self.gate_by_interest
        if gated and not session.interest.interested_in(category_of(trace_type), now):
            self.monitor.metrics.counter("trace.suppressed_no_interest").inc()
            return
        topic = session.topics.topic_for_trace(trace_type)
        # a tracker can unsubscribe (or its broker can detach it) while its
        # gauged interest is still inside the TTL window; the indexed
        # matcher makes "anyone subscribed at all?" an O(topic-depth) check,
        # so skip the signing cost for traces no subscriber anywhere would
        # receive
        if gated and not self.broker.has_any_subscriber(topic.canonical):
            self.monitor.metrics.counter("trace.suppressed_no_subscriber").inc()
            return

        body = {
            "trace_type": trace_type.value,
            "entity_id": str(session.entity_id),
            "trace_topic": session.advertisement.trace_topic.hex,
            "session": session.hex_id,
            "seq": session.next_trace_seq(),
            "payload": payload,
            "origin_stamp_ms": origin_stamp_ms,
            "broker_stamp_ms": now,
        }

        secured = session.secured and trace_type is not TraceType.GUAGE_INTEREST
        if secured:
            yield from self.machine.charge(CryptoOp.SECURE_WRAP)
            body = wrap_trace_body(body, session.trace_key, self.machine.rng)
            yield from self.machine.charge(CryptoOp.TRACE_SIGN_ENCRYPTED)
        else:
            yield from self.machine.charge(CryptoOp.TRACE_SIGN)
        envelope = sign_payload(body, session.token_private_key)

        message = Message(
            topic=topic,
            body=body,
            source=self.broker.broker_id,
            created_ms=now,
            signature=envelope.to_dict(),
            auth_token=session.token.wire,
            encrypted=secured,
        )
        self.broker.publish_from_broker(message)
        self.monitor.increment(f"trace.published.{trace_type.value}")

    # ------------------------------------------------------------------- lookup

    def session_of(self, entity_id: str) -> TraceSession | None:
        return self.sessions_by_entity.get(entity_id)

    def active_sessions(self) -> list[TraceSession]:
        return [s for s in self.sessions.values() if s.active]


def _read_token_delivery(payload: dict) -> tuple[AuthorizationToken, RSAPrivateKey]:
    """The delivered token and the key this broker will sign its traces with.

    Raises :class:`MalformedFrameError` for anything but a key the first
    ``publish_trace`` can sign with under this token: the private half of
    ``token_public_key``, with a modulus long enough for EMSA-PKCS1-v1_5
    over SHA-1, and CRT factors of it with non-negative exponents.
    """
    try:
        token = AuthorizationToken.from_dict(payload.get("token"))
    except TokenError as exc:
        raise MalformedFrameError(f"token delivery: {exc}") from exc
    fields = Fields(payload.get("token_private"), RSAPrivateKey)
    key = RSAPrivateKey(
        **{f.name: fields.integer(f.name) for f in dataclasses.fields(RSAPrivateKey)}
    )
    public = token.token_public_key
    if (key.n, key.e) != (public.n, public.e):
        problem = "is not the private half of the token's key"
    elif key.byte_length < MIN_SIGNING_MODULUS_BYTES:
        problem = f"has a {key.byte_length}-byte modulus, under {MIN_SIGNING_MODULUS_BYTES}"
    elif not (1 < min(key.p, key.q) and key.p * key.q == key.n and min(key.d_p, key.d_q) >= 0):
        problem = "has CRT parameters that cannot sign"
    else:
        return token, key
    raise MalformedFrameError(f"token delivery: 'token_private' {problem}")
