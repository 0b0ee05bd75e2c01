"""Topic creation requests and signed topic advertisements (section 3.1).

A topic creation request carries four components: the entity's credentials,
the topic descriptor, the discovery restrictions, and the topic lifetime.
The TDN responds with a signed advertisement binding the freshly minted
UUID trace topic to those components — the provenance record every later
step of the protocol leans on.
"""

from __future__ import annotations

from typing import Annotated, Mapping

from repro.crypto.certificates import Certificate
from repro.crypto.rsa import RSAPublicKey
from repro.crypto.signing import SignedEnvelope, verify_signed
from repro.errors import DiscoveryError, SignatureError
from repro.tdn.query import DiscoveryRestrictions
from repro.util.identifiers import EntityId, RequestId, UUID128
from repro.util.serialization import wire_record


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


@wire_record()
class TopicCreationRequest:
    """What an entity sends the TDN to create its trace topic; signed whole."""

    credentials: Certificate
    descriptor: str
    restrictions: DiscoveryRestrictions
    lifetime_ms: float
    request_id: RequestId


@wire_record()
class TopicRenewal:
    """What a topic owner signs to extend its topic's lifetime (section 2.2).

    ``current_duration_ms`` is the lifetime being extended, so one signed
    renewal extends a topic once: after it, the stored lifetime differs.
    """

    trace_topic: UUID128
    current_duration_ms: float
    additional_lifetime_ms: float


@wire_record()
class AdvertisedTopic:
    """The fields the TDN signs to bind a trace topic to its owner.

    The owner's key goes on the wire as ``owner_n`` / ``owner_e``.
    """

    trace_topic: UUID128
    descriptor: str
    owner_subject: str
    owner_public_key: Annotated[RSAPublicKey, "owner_"]
    restrictions: DiscoveryRestrictions
    lifetime: TopicLifetime
    issuing_tdn: str

    @property
    def entity_id(self) -> EntityId:
        """The Entity-ID embedded in the descriptor."""
        prefix = "Availability/Traces/"
        if not self.descriptor.startswith(prefix):
            raise DiscoveryError(
                f"descriptor {self.descriptor!r} is not a trace descriptor"
            )
        return EntityId(self.descriptor[len(prefix):])


@wire_record()
class TopicAdvertisement:
    """The TDN-signed provenance record of a trace topic."""

    fields: AdvertisedTopic
    signature: SignedEnvelope  # by the issuing TDN's key, over ``fields``

    def verify_provenance(self, trusted_tdn_keys: Mapping[str, RSAPublicKey]) -> None:
        """Check that a trusted TDN signed exactly these fields.

        Raises :class:`SignatureError`.  The three messages travel in the
        broker's registration rejections, so their bytes are wire format.
        """
        tdn_key = trusted_tdn_keys.get(self.fields.issuing_tdn)
        if tdn_key is None:
            raise SignatureError("advertisement from unknown TDN")
        try:
            signed = verify_signed(self.signature, self.fields.to_dict(), tdn_key)
        except SignatureError as exc:
            raise SignatureError("advertisement signature invalid") from exc
        if not signed:
            raise SignatureError("advertisement fields mismatch")
