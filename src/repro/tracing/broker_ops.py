"""Broker-side tracing operations (sections 3.2-3.5, 4, 5.1).

The :class:`TraceManager` is the component a broker runs to host traced
entities: it validates registrations, mints sessions, polls entities with
adaptively-scheduled pings, detects failures, gauges tracker interest, and
publishes typed traces over the Table 2 topics — signed with the
authorization token the entity delegated, encrypted with the secret trace
key when the entity asked for confidentiality.
"""

from __future__ import annotations

from typing import Generator

from repro.auth.credentials import EntityCredentials
from repro.crypto.certificates import Certificate, CertificateAuthority
from repro.crypto.costmodel import CryptoOp
from repro.crypto.keys import SymmetricKey
from repro.crypto.rsa import MIN_SIGNING_MODULUS_BYTES, RSAPublicKey
from repro.crypto.signing import (
    open_sealed,
    seal_for,
    sign_payload,
    signed_value,
    verify_signed,
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
)
from repro.messaging.broker import Broker
from repro.messaging.message import Message
from repro.messaging.topics import Topic
from repro.security.confidentiality import wrap_trace_body
from repro.security.keydist import build_key_payload
from repro.sim.engine import Event
from repro.tracing.entity import (
    ChannelKeyDelivery,
    LoadReport,
    StateReport,
    SymFrame,
    TokenDelivery,
    TokenDeliveryPayload,
    TraceKeyDelivery,
)
from repro.tracing.failure import AdaptivePingPolicy, DetectorVerdict, FailureDetector
from repro.tracing.interest import InterestCategory, InterestRegistry, InterestResponse
from repro.tracing.pings import Ping, PingResponse
from repro.tracing.registration import (
    RegistrationError_Response,
    RegistrationResponse,
    TraceRegistrationRequest,
)
from repro.tracing.session import TraceSession
from repro.tracing.topics import REGISTRATION_TOPIC, TraceTopicSet
from repro.tracing.traces import EntityState, TraceBody, TraceType, category_of
from repro.util.identifiers import SessionId, UUIDGenerator
from repro.util.serialization import Canonical, canonical_decode

#: The sealed symmetric keys a session can install, by message kind.
_SEALED_KEYS = {"trace_key": TraceKeyDelivery, "channel_key": ChannelKeyDelivery}

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
    ) -> None:
        self.broker = broker
        self.sim = broker.sim
        self.machine = broker.machine
        self.ca = ca
        self.tdn_public_keys = dict(tdn_public_keys)
        self.monitor = broker.monitor
        self.ping_policy = ping_policy or AdaptivePingPolicy()
        self.gauge_interval_ms = gauge_interval_ms
        # assigned after construction by tests only
        self.interest_ttl_ms = 120_000.0
        self.detector_factory = FailureDetector
        # section 3.5 gating; the EXP-A4 interest-gating ablation turns it off
        self.gate_by_interest = True
        # installed by a fault controller; when present, FAILED verdicts
        # open a recovery window and successful registrations close it
        self.recovery_probe = None

        self.credentials = EntityCredentials.issue(
            f"broker-cred-{broker.broker_id}", ca, self.machine.rng
        )
        self._session_ids = UUIDGenerator(
            seed=self.machine.rng.getrandbits(64)
        )
        self.sessions: dict[str, TraceSession] = {}          # live, by entity id
        self.interest: dict[str, InterestRegistry] = {}      # outlives sessions

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
        topics = TraceTopicSet(advertisement.fields.trace_topic, request.entity_id)
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

        entity = str(request.entity_id)
        registered_before = entity in self.interest

        # success: mint a session and wire the topics
        session_id = SessionId(self._session_ids.next())
        session = TraceSession(
            entity_id=request.entity_id,
            session_id=session_id,
            advertisement=advertisement,
            topics=topics,
            started_ms=self.sim.now,
            # interest continuity: trackers that were following an earlier
            # session are still subscribed (publication topics derive from
            # the trace topic), so the new session inherits their interest
            interest=self.interest.setdefault(
                entity, InterestRegistry(ttl_ms=self.interest_ttl_ms)
            ),
            # entity messages are handled strictly in arrival order per
            # session (verification times differ per message kind, so
            # concurrent handlers could otherwise reorder, e.g. a state
            # report overtaking the token delivery it depends on)
            inbox=self.sim.queue(name=f"session-{session_id.value.hex[:8]}"),
            current_interval_ms=self.ping_policy.base_interval_ms,
            detector=self.detector_factory(),
        )
        session.history.metrics = self.monitor.metrics
        session.worker = self.sim.process(
            self._session_worker(session),
            name=f"{self.broker.broker_id}.worker.{request.entity_id}",
        )

        # the broker subscribes to the entity->broker session topic ...
        self.broker.subscribe_local(
            topics.entity_to_broker(session_id).canonical,
            session.inbox.put,
        )
        # ... and to the interest-response topic (section 3.5)
        session.on_interest = lambda msg, s=session: self.sim.process(
            self._handle_interest_response(s, msg), name=f"{self.broker.broker_id}.interest"
        )
        self.broker.subscribe_local(topics.interest_response.canonical, session.on_interest)

        # a re-registration supersedes the entity's previous session: the
        # old ping loop winds down and the new session takes over (this is
        # how a recovered entity resumes tracing, section 3.2).  It is
        # retired once the new one listens on the shared interest topic,
        # so the broker's interest in that topic never lapses.
        previous = self.sessions.get(entity)
        if previous is not None:
            self._retire(previous)
            self.monitor.metrics.counter("trace.sessions_superseded").inc()
        self.sessions[entity] = session

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
            superseded_previous=registered_before,
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
        try:
            verify_signed(
                request.signature, request.claim().to_dict(), request.credentials.public_key
            )
        except SignatureError as exc:
            return str(exc)

        # 3. the advertisement must be TDN-signed and owned by the requester
        yield from self.machine.charge(CryptoOp.CERT_VERIFY)
        advertisement = request.advertisement
        try:
            advertisement.verify_provenance(self.tdn_public_keys)
        except SignatureError as exc:
            return str(exc)
        if advertisement.fields.owner_subject != request.credentials.subject:
            return "trace topic owned by another entity"
        if not advertisement.fields.lifetime.alive_at(self.machine.now()):
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

    def _retire(self, session: TraceSession) -> None:
        """End a session for good: superseded, shut down, silent,
        disconnected or declared failed (section 3.2).

        The session stops being active, its entity->broker and interest
        handlers are unsubscribed, and the manager forgets it.  Its worker
        ends: an idle one is interrupted where it waits for a message, and
        a busy one finishes the message it holds first (the SHUTDOWN or
        silent-mode trace it may be publishing included).
        """
        session.active = False
        topics = session.topics
        self.broker.unsubscribe_local(
            topics.entity_to_broker(session.session_id).canonical, session.inbox.put
        )
        self.broker.unsubscribe_local(topics.interest_response.canonical, session.on_interest)
        del self.sessions[str(session.entity_id)]
        if session.inbox.waiting:
            session.worker.interrupt("retired")

    def _session_worker(self, session: TraceSession) -> Generator[Event, None, None]:
        """FIFO handler loop for one session's entity messages."""
        while session.active:
            message = yield session.inbox.get()
            if isinstance(message, Event):  # a ping judgment (``_ping_loop``)
                message.succeed()
                continue
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
            elif kind in _SEALED_KEYS:
                yield from self._handle_symmetric_key(session, kind, body)
            elif kind == "disable_tracing":
                yield from self._handle_disable(session)
            else:
                self.monitor.metrics.counter("trace.entity_messages_unknown").inc()
        # release a ping judgment queued behind the message that retired it
        while session.inbox:
            item = yield session.inbox.get()
            if isinstance(item, Event):
                item.succeed()

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
                frame = SymFrame.from_dict(body)
                decoded = canonical_decode(session.channel_key.decrypt(frame.ciphertext))
            except (DecryptionError, MalformedFrameError, SerializationDecodeError):
                return None
            return decoded if isinstance(decoded, dict) else None

        if message.signature is None:
            return None
        yield from self.machine.charge(CryptoOp.TRACE_VERIFY)
        try:
            body = verify_signed_body(
                message.signature, body, session.advertisement.fields.owner_public_key
            )
        except SignatureError as exc:
            self._log_malformed(exc, session, message)
            return None
        return body if isinstance(body, dict) else None

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

    def _open_sealed_control(
        self, control: type, body: dict
    ) -> Generator[Event, None, dict | None]:
        """The payload a sealed ``control`` message seals to this broker."""
        yield from self.machine.charge(CryptoOp.OPEN_SEALED)
        try:
            payload = open_sealed(control.from_dict(body).sealed, self.credentials.keys.private)
        except (DecryptionError, MalformedFrameError):
            self.monitor.metrics.counter("trace.sealed_control_rejected").inc()
            return None
        return payload if isinstance(payload, dict) else None

    def _handle_token_delivery(
        self, session: TraceSession, message: Message, body: dict
    ) -> Generator[Event, None, None]:
        payload = yield from self._open_sealed_control(TokenDelivery, body)
        if payload is None:
            return
        try:
            delivery = _read_token_delivery(payload)
        except MalformedFrameError as exc:
            self.monitor.metrics.counter("trace.token_delivery_malformed").inc()
            self._log_malformed(exc, session, message)
            return
        first_token = session.token is None
        session.token = delivery.token
        session.token_private_key = delivery.token_private
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
        payload = yield from self._open_sealed_control(_SEALED_KEYS[kind], body)
        if payload is None:
            return
        try:
            setattr(session, kind, SymmetricKey.from_dict(payload))
        except MalformedFrameError:
            self.monitor.metrics.counter(f"trace.{kind}_malformed").inc()
            return
        self.monitor.metrics.counter(f"trace.{kind}s_received").inc()
        if kind == "trace_key":
            # a new key reaches every tracker still interested at once, not
            # at its next interest response (re-registration, failover)
            session.keyed_trackers.clear()
            for certificate in session.interest.certificates(self.machine.now()):
                yield from self._seal_trace_key(session, certificate)

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
            report = StateReport.from_dict(body)
        except MalformedFrameError:
            self.monitor.metrics.counter("trace.state_reports_malformed").inc()
            return
        state = report.state
        session.entity_state = state
        yield from self.publish_trace(
            session,
            TraceType.for_state(state),
            {"state": state.value},
            origin_stamp_ms=report.stamp_ms,
        )
        if state is EntityState.SHUTDOWN and session.active:
            self._retire(session)

    def _handle_load_report(
        self, session: TraceSession, body: dict
    ) -> Generator[Event, None, None]:
        try:
            report = LoadReport.from_dict(body)
        except MalformedFrameError:
            self.monitor.metrics.counter("trace.load_reports_malformed").inc()
            return
        yield from self.publish_trace(
            session,
            TraceType.LOAD_INFORMATION,
            report.load.to_dict(),
            origin_stamp_ms=report.stamp_ms,
        )

    def _handle_disable(self, session: TraceSession) -> Generator[Event, None, None]:
        if session.active:
            self._retire(session)
        yield from self.publish_trace(
            session,
            TraceType.REVERTING_TO_SILENT_MODE,
            {"entity_id": str(session.entity_id)},
            force=True,
        )

    def handle_client_disconnect(self, entity_id: str) -> None:
        """Announce a dropped entity connection with a DISCONNECT trace."""
        session = self.sessions.get(entity_id)
        if session is None:
            return
        self._retire(session)
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
            session.detector.reset()
            session.suspicion_announced = False

    # ------------------------------------------------------------------ pinging

    def _ping_loop(self, session: TraceSession) -> Generator[Event, None, None]:
        """Poll the entity until shutdown, silent mode, or declared failure."""
        deadline = self.ping_policy.response_deadline_ms
        # random initial phase: colocated sessions must not ping in lockstep
        # (their registration times are often harmonically related)
        yield self.sim.timeout(self.machine.rng.uniform(0.0, session.current_interval_ms))
        while session.active:
            if self.broker.failed:
                # the broker process is down: a dead host issues no pings
                # and judges no misses.  Idle until the fabric recovers us;
                # handle_broker_restart() clears the stale window then.
                yield self.sim.timeout(session.current_interval_ms)
                continue
            # the ping goes out the moment it is due (section 3.3)
            ping = Ping(number=session.ping_number, issued_ms=self.machine.now())
            session.ping_number += 1
            session.history.record_ping(ping)
            self.monitor.metrics.counter("tracker.pings.sent").inc()
            self._publish_plain(
                session.topics.broker_to_entity(session.session_id), ping.to_dict()
            )

            # wait until this ping can be judged, but never longer than the
            # ping interval itself (a deadline above the interval must not
            # slow the cadence; young in-flight pings are simply skipped by
            # the miss counter)
            judge_wait = min(deadline, session.current_interval_ms)
            yield self.sim.timeout(judge_wait)
            if not session.active:
                break
            # judge once the worker has handled what reached the session by
            # now: a response that arrived in time is not a miss, however
            # long its authentication waits on this broker's CPU
            now, judged_at = self.machine.now(), self.sim.now
            caught_up = self.sim.event()
            session.inbox.put(caught_up)
            yield caught_up
            backlog = self.sim.now - judged_at
            if not session.active:
                break
            if self.broker.failed:
                # crashed between issuing the ping and judging it — the
                # response (if any) was dropped by the dead broker, so
                # judging now would count phantom misses
                continue
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
                self._retire(session)
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
            remaining = max(0.0, session.current_interval_ms - judge_wait - backlog)
            if remaining:
                yield self.sim.timeout(remaining)

    # ----------------------------------------------------------- interest (3.5)

    def _gauge_loop(self, session: TraceSession) -> Generator[Event, None, None]:
        while session.active:
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

    def _handle_interest_response(
        self, session: TraceSession, message: Message
    ) -> Generator[Event, None, None]:
        body = message.body
        if message.signature is None:
            self.monitor.metrics.counter("trace.interest_unsigned").inc()
            return
        # the certificate must verify against the trust anchor, as at
        # registration, and the signature under the certificate's key
        yield from self.machine.charge(CryptoOp.CERT_VERIFY)
        yield from self.machine.charge(CryptoOp.TRACE_VERIFY)
        try:
            certificate = InterestResponse.signer(signed_value(body))
            self.ca.verify(certificate, now_ms=self.machine.now())
            body = verify_signed_body(message.signature, body, certificate.public_key)
        except (CertificateError, MalformedFrameError, SignatureError) as exc:
            self.monitor.metrics.counter("trace.interest_bad_signature").inc()
            self._log_malformed(exc, session, message)
            return
        try:
            categories = InterestCategory.parse_many(InterestResponse.from_dict(body).categories)
        except (MalformedFrameError, InterestError):
            self.monitor.metrics.counter("trace.interest_malformed").inc()
            return

        session.interest.record(certificate, categories, self.machine.now())
        self.monitor.metrics.counter("trace.interest_recorded").inc()
        if not categories:
            # a tracker that retracts drops the key; tracking again re-keys it
            session.keyed_trackers.discard(certificate.subject)
        elif session.secured:
            yield from self._seal_trace_key(session, certificate)

    def _seal_trace_key(
        self, session: TraceSession, certificate: Certificate
    ) -> Generator[Event, None, None]:
        """Seal the trace key to a certified tracker once per key (§5.1), if
        the advertisement's discovery restrictions admit it, as TDN's do."""
        subject = certificate.subject
        if subject in session.keyed_trackers:
            return
        restrictions = session.advertisement.fields.restrictions
        if not restrictions.permits(certificate, self.ca, self.machine.now()):
            self.monitor.metrics.counter("trace.keys_withheld").inc()
            return
        session.keyed_trackers.add(subject)
        yield from self.machine.charge(CryptoOp.SEAL_PAYLOAD)
        payload = build_key_payload(
            session.trace_key,
            session.advertisement.fields.trace_topic.hex,
            certificate.public_key,
            self.machine.rng,
        )
        self._publish_plain(session.topics.key_delivery(subject), payload.to_dict())
        self.monitor.metrics.counter("trace.keys_distributed").inc()
        # audit evidence for the key hand-off (repro.analytics.audit)
        self.monitor.journal.record(
            self.machine.now(),
            "key.distributed",
            principal=str(session.entity_id),
            entity=str(session.entity_id),
            broker=self.broker.broker_id,
            tracker=subject,
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

        stream = topic.canonical
        seq = session.trace_seq.get(stream, 0)
        session.trace_seq[stream] = seq + 1
        trace = TraceBody(
            trace_type=trace_type,
            entity_id=str(session.entity_id),
            payload=payload,
            trace_topic=session.advertisement.fields.trace_topic.hex,
            session=session.hex_id,
            seq=seq,
            origin_stamp_ms=origin_stamp_ms,
            broker_stamp_ms=now,
        )

        secured = session.secured and trace_type is not TraceType.GUAGE_INTEREST
        if secured:
            yield from self.machine.charge(CryptoOp.SECURE_WRAP)
            wrapped = wrap_trace_body(trace, session.trace_key, self.machine.rng)
            body = Canonical.of(wrapped.to_dict())
            yield from self.machine.charge(CryptoOp.TRACE_SIGN_ENCRYPTED)
        else:
            body = Canonical.of(trace.to_dict())
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
        """The entity's live session on this broker, if it has one."""
        return self.sessions.get(entity_id)

    def active_sessions(self) -> list[TraceSession]:
        return list(self.sessions.values())


def _read_token_delivery(payload: dict) -> TokenDeliveryPayload:
    """The delivered token and the key this broker will sign its traces with.

    Raises :class:`MalformedFrameError` for anything but a key the first
    ``publish_trace`` can sign with under the delivered token: the private
    half of ``token_public_key``, with a modulus long enough for
    EMSA-PKCS1-v1_5 over SHA-1, and CRT factors of it with non-negative
    exponents.
    """
    try:
        delivery = TokenDeliveryPayload.from_dict(payload)
    except TokenError as exc:
        raise MalformedFrameError(f"token delivery: {exc}") from exc
    key = delivery.token_private
    if key.public != delivery.token.token_public_key:
        problem = "is not the private half of the token's key"
    elif key.byte_length < MIN_SIGNING_MODULUS_BYTES:
        problem = f"has a {key.byte_length}-byte modulus, under {MIN_SIGNING_MODULUS_BYTES}"
    elif not (1 < min(key.p, key.q) and key.p * key.q == key.n and min(key.d_p, key.d_q) >= 0):
        problem = "has CRT parameters that cannot sign"
    else:
        return delivery
    raise MalformedFrameError(f"token delivery: 'token_private' {problem}")
