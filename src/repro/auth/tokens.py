"""Authorization tokens (section 4.3).

A traced entity explicitly authorizes its hosting broker to publish traces
by handing it a token containing:

1. the trace-topic information,
2. a *randomly generated* public key (the matching private key is what the
   broker uses to prove possession — random so that no other broker can
   tell which broker the entity is connected to),
3. the delegated rights (publish, for a broker),
4. the validity duration (kept short; refreshed near expiry),

all signed by the entity.  Every trace message a broker publishes carries
the token; routing brokers discard messages without a valid one.
"""

from __future__ import annotations

import enum
import random
from dataclasses import field
from typing import Annotated

from repro.crypto.keys import KeyPair
from repro.crypto.rsa import RSAPrivateKey, RSAPublicKey
from repro.crypto.signing import SignedEnvelope, sign_payload, verify_signed
from repro.errors import (
    MalformedFrameError,
    SerializationDecodeError,
    SignatureError,
    TokenError,
)
from repro.tdn.advertisement import TopicAdvertisement
from repro.util.identifiers import UUID128
from repro.util.serialization import Canonical, read_record, wire_record

#: Clock skew a token's validity window is widened by (section 4, NTP).
DEFAULT_SKEW_TOLERANCE_MS = 100.0


class TokenRights(enum.Enum):
    """Rights a token delegates."""

    PUBLISH = "publish"
    SUBSCRIBE = "subscribe"


@wire_record()
class TokenGrant:
    """What the topic owner signs to delegate rights over its trace topic (§4.2).

    The token's key goes on the wire as ``token_n`` / ``token_e``.
    """

    trace_topic: UUID128
    token_public_key: Annotated[RSAPublicKey, "token_"]
    rights: TokenRights
    valid_from_ms: float
    valid_until_ms: float


@wire_record()
class AuthorizationToken:
    """A signed delegation of rights over a trace topic.

    On the wire its key is ``token_n`` / ``token_e``.  :attr:`wire` is
    the canonical encoding of :meth:`to_dict`: it is what every trace
    carries (``Message.auth_token``) and what a verifier hashes for its
    cache key.
    """

    advertisement: TopicAdvertisement
    token_public_key: Annotated[RSAPublicKey, "token_"]
    rights: TokenRights
    valid_from_ms: float
    valid_until_ms: float
    owner_signature: SignedEnvelope
    _encoded: Canonical | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def wire(self) -> Canonical:
        """The token's bytes: the ones it was read from, or encoded once on first use."""
        encoded = self._encoded
        if encoded is None:
            encoded = Canonical.of(self.to_dict())
            object.__setattr__(self, "_encoded", encoded)
        return encoded

    @classmethod
    def from_wire(cls, wire: Canonical) -> "AuthorizationToken":
        """Parse received bytes; the token keeps them as its :attr:`wire`.

        Raises ``TokenError`` when they do not decode to a token.
        """
        try:
            value = wire.value
        except SerializationDecodeError as exc:
            raise TokenError(f"malformed token: {exc}") from exc
        token = cls.from_dict(value)
        object.__setattr__(token, "_encoded", wire)
        return token

    def grant(self) -> TokenGrant:
        """The statement the owner signature covers."""
        return TokenGrant(
            self.advertisement.fields.trace_topic,
            self.token_public_key,
            self.rights,
            self.valid_from_ms,
            self.valid_until_ms,
        )

    # -- creation ---------------------------------------------------------------

    @classmethod
    def create(
        cls,
        advertisement: TopicAdvertisement,
        owner_private_key: RSAPrivateKey,
        rights: TokenRights,
        now_ms: float,
        duration_ms: float,
        rng: random.Random,
    ) -> tuple["AuthorizationToken", RSAPrivateKey]:
        """Generate the random key pair, build and sign the token.

        Returns the token and the private half of the random key pair,
        which the entity hands to its broker over the secured channel.
        """
        token_keys = KeyPair.generate(rng)
        grant = TokenGrant(
            advertisement.fields.trace_topic,
            token_keys.public,
            rights,
            now_ms,
            now_ms + duration_ms,
        )
        token = cls(
            advertisement=advertisement,
            token_public_key=grant.token_public_key,
            rights=rights,
            valid_from_ms=now_ms,
            valid_until_ms=grant.valid_until_ms,
            owner_signature=sign_payload(grant.to_dict(), owner_private_key),
        )
        return token, token_keys.private

    # -- validation ----------------------------------------------------------------

    def expired(
        self, now_ms: float, skew_tolerance_ms: float = DEFAULT_SKEW_TOLERANCE_MS
    ) -> bool:
        """Expiry check with NTP skew tolerance (the paper's 30-100 ms)."""
        return now_ms > self.valid_until_ms + skew_tolerance_ms

    def not_yet_valid(
        self, now_ms: float, skew_tolerance_ms: float = DEFAULT_SKEW_TOLERANCE_MS
    ) -> bool:
        """Early-use check, skew-tolerant like :meth:`expired`."""
        return now_ms < self.valid_from_ms - skew_tolerance_ms

    def verify_owner_signature(self) -> None:
        """Check the token was signed by the trace-topic owner.

        The owner's public key comes from the TDN-signed advertisement the
        token carries, so a forger would also need to forge the TDN
        signature (verified separately by :class:`TokenVerifier`).
        """
        owner_key = self.advertisement.fields.owner_public_key
        try:
            verify_signed(self.owner_signature, self.grant().to_dict(), owner_key)
        except SignatureError as exc:
            raise TokenError(f"token not signed by topic owner: {exc}") from exc

    @classmethod
    def from_dict(cls, data: dict) -> "AuthorizationToken":
        """Parse a wire-form token; raises ``TokenError`` when malformed."""
        try:
            return read_record(cls, data)
        except MalformedFrameError as exc:
            raise TokenError(f"malformed token: {exc}") from exc
