"""Traced-entity registration messages and recovery timing (section 3.2).

The registration request carries: the entity's identifier and credentials,
the trace topic advertisement (provenance), a request identifier for
response correlation, and the entity's signature over all of it
(demonstrating possession of the credentials and providing tamper
evidence).  The success response carries the request identifier and the
broker-minted session identifier, sealed so only the entity can read it.

Re-registration is also the system's recovery path: a crashed entity, or
an entity whose broker died, comes back by registering again (with a new
broker if necessary).  :class:`RecoveryProbe` times that loop — from the
moment a failure is *detected* (FAILED verdict, or a fault controller
initiating failover) to the moment the entity's re-registration succeeds
— and publishes it as the ``trace.recovery_ms`` histogram.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Annotated

from repro.crypto.certificates import Certificate
from repro.crypto.rsa import RSAPublicKey
from repro.crypto.signing import SignedEnvelope
from repro.errors import MalformedFrameError, RegistrationError
from repro.obs import EventJournal, MetricsRegistry
from repro.tdn.advertisement import TopicAdvertisement
from repro.util.identifiers import UUID128, EntityId, RequestId, SessionId
from repro.util.serialization import read_record, wire_record


@dataclass(slots=True)
class RecoveryProbe:
    """Measures detection → re-registration latency per entity.

    One probe is shared by every :class:`~repro.tracing.broker_ops.TraceManager`
    in a deployment (installed by the fault controller).  ``mark_detected``
    is first-wins per entity — the earliest of "the tracker declared FAILED"
    and "the fault controller started failover" opens the window; the next
    successful registration for that entity closes it and observes
    ``trace.recovery_ms``.
    """

    metrics: MetricsRegistry
    journal: EventJournal | None = None
    _detected_at: dict[str, float] = field(default_factory=dict)
    _causes: dict[str, str] = field(default_factory=dict)

    def mark_detected(self, entity_id: str, at_ms: float, cause: str) -> None:
        """Open the recovery window for an entity (first signal wins)."""
        if entity_id in self._detected_at:
            return
        self._detected_at[entity_id] = at_ms
        self._causes[entity_id] = cause
        self.metrics.counter("trace.recovery.detected").inc()
        if self.journal is not None:
            self.journal.record(
                at_ms, "recovery.detected", entity=entity_id, cause=cause
            )

    def mark_reregistered(self, entity_id: str, at_ms: float) -> None:
        """Close the window on a successful registration, if one is open."""
        detected = self._detected_at.pop(entity_id, None)
        if detected is None:
            return
        cause = self._causes.pop(entity_id, "")
        elapsed = at_ms - detected
        self.metrics.histogram("trace.recovery_ms").observe(elapsed)
        self.metrics.counter("trace.recovery.completed").inc()
        if self.journal is not None:
            self.journal.record(
                at_ms,
                "recovery.completed",
                entity=entity_id,
                cause=cause,
                recovery_ms=elapsed,
            )

    def pending(self) -> tuple[str, ...]:
        """Entities whose recovery window is still open (sorted)."""
        return tuple(sorted(self._detected_at))


@wire_record()
class RegistrationClaim:
    """What an entity signs to register: its identity, credentials and
    trace topic, bound to one request (section 3.2)."""

    entity_id: EntityId
    credential_fingerprint: bytes
    trace_topic: UUID128
    request_id: RequestId


@wire_record()
class TraceRegistrationRequest:
    """What an entity publishes on the Registration topic."""

    entity_id: EntityId
    credentials: Certificate
    advertisement: TopicAdvertisement
    request_id: RequestId
    signature: SignedEnvelope

    def claim(self) -> RegistrationClaim:
        """The statement ``signature`` covers."""
        return RegistrationClaim(
            self.entity_id,
            self.credentials.fingerprint(),
            self.advertisement.fields.trace_topic,
            self.request_id,
        )

    @classmethod
    def from_dict(cls, data: dict) -> "TraceRegistrationRequest":
        try:
            return read_record(cls, data)
        except MalformedFrameError as exc:
            raise RegistrationError(f"malformed registration request: {exc}") from exc


@wire_record()
class RegistrationResponse:
    """Success response: request id + fresh session id (sealed in transit).

    The broker's key travels as ``broker_n`` / ``broker_e``.
    """

    request_id: RequestId
    session_id: SessionId
    broker_id: str
    broker_public_key: Annotated[RSAPublicKey, "broker_"]


@wire_record()
class RegistrationError_Response:
    """Error response returned when verification fails (section 3.2)."""

    request_id: RequestId
    error: str
