"""Topic creation requests and signed topic advertisements (section 3.1).

A topic creation request carries four components: the entity's credentials,
the topic descriptor, the discovery restrictions, and the topic lifetime.
The TDN responds with a signed advertisement binding the freshly minted
UUID trace topic to those components — the provenance record every later
step of the protocol leans on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.crypto.certificates import Certificate
from repro.crypto.rsa import RSAPublicKey
from repro.crypto.signing import SignedEnvelope, verify_payload
from repro.errors import DiscoveryError, SignatureError
from repro.tdn.query import DiscoveryRestrictions
from repro.util.identifiers import EntityId, RequestId, UUID128
from repro.util.serialization import Fields, wire_record


@wire_record()
class TopicLifetime:
    """Validity window of a trace topic."""

    created_ms: float
    duration_ms: float

    @property
    def expires_ms(self) -> float:
        return self.created_ms + self.duration_ms

    def alive_at(self, now_ms: float) -> bool:
        return self.created_ms <= now_ms <= self.expires_ms


@dataclass(frozen=True, slots=True)
class TopicCreationRequest:
    """What an entity sends the TDN to create its trace topic."""

    credentials: Certificate
    descriptor: str
    restrictions: DiscoveryRestrictions
    lifetime_ms: float
    request_id: RequestId

    def signing_payload(self) -> dict:
        """The canonical dict the entity signs."""
        return {
            "subject": self.credentials.subject,
            "credential_fingerprint": self.credentials.fingerprint(),
            "descriptor": self.descriptor,
            "restrictions": self.restrictions.to_dict(),
            "lifetime_ms": self.lifetime_ms,
            "request_id": self.request_id.value,
        }


@dataclass(frozen=True, slots=True)
class TopicAdvertisement:
    """The TDN-signed provenance record of a trace topic."""

    trace_topic: UUID128
    descriptor: str
    owner_subject: str
    owner_public_key: RSAPublicKey
    restrictions: DiscoveryRestrictions
    lifetime: TopicLifetime
    issuing_tdn: str
    signature: SignedEnvelope  # signed by the issuing TDN's key

    @property
    def entity_id(self) -> EntityId:
        """The Entity-ID embedded in the descriptor."""
        prefix = "Availability/Traces/"
        if not self.descriptor.startswith(prefix):
            raise DiscoveryError(
                f"descriptor {self.descriptor!r} is not a trace descriptor"
            )
        return EntityId(self.descriptor[len(prefix):])

    def signed_fields(self) -> dict:
        """The canonical dict the TDN signs (and verifiers re-derive)."""
        return {
            "trace_topic": self.trace_topic.hex,
            "descriptor": self.descriptor,
            "owner_subject": self.owner_subject,
            "owner_n": self.owner_public_key.n,
            "owner_e": self.owner_public_key.e,
            "restrictions": self.restrictions.to_dict(),
            "lifetime": self.lifetime.to_dict(),
            "issuing_tdn": self.issuing_tdn,
        }

    def verify_provenance(self, trusted_tdn_keys: Mapping[str, RSAPublicKey]) -> None:
        """Check that a trusted TDN signed exactly these fields.

        Raises :class:`SignatureError`.  The three messages travel in the
        broker's registration rejections, so their bytes are wire format.
        """
        tdn_key = trusted_tdn_keys.get(self.issuing_tdn)
        if tdn_key is None:
            raise SignatureError("advertisement from unknown TDN")
        if self.signature.payload != self.signed_fields():
            raise SignatureError("advertisement fields mismatch")
        try:
            verify_payload(self.signature, tdn_key)
        except SignatureError as exc:
            raise SignatureError("advertisement signature invalid") from exc

    def to_dict(self) -> dict:
        """Wire rendering (embedded in registration messages)."""
        return {
            "fields": self.signed_fields(),
            "signature": self.signature.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TopicAdvertisement":
        with Fields(data, cls) as outer:
            fields = Fields(outer.value("fields"), cls)
            return cls(
                trace_topic=UUID128.from_hex(fields.text("trace_topic")),
                descriptor=fields.text("descriptor"),
                owner_subject=fields.text("owner_subject"),
                owner_public_key=RSAPublicKey(
                    fields.integer("owner_n"), fields.integer("owner_e")
                ),
                restrictions=DiscoveryRestrictions.from_dict(fields.value("restrictions")),
                lifetime=TopicLifetime.from_dict(fields.value("lifetime")),
                issuing_tdn=fields.text("issuing_tdn"),
                signature=SignedEnvelope.from_dict(outer.value("signature")),
            )
