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
from dataclasses import dataclass, field

from repro.crypto.keys import KeyPair
from repro.crypto.rsa import RSAPrivateKey, RSAPublicKey
from repro.crypto.signing import SignedEnvelope, sign_payload, verify_payload
from repro.errors import MalformedFrameError, SignatureError, TokenError
from repro.tdn.advertisement import TopicAdvertisement
from repro.util.serialization import Canonical, Fields


class TokenRights(enum.Enum):
    """Rights a token delegates."""

    PUBLISH = "publish"
    SUBSCRIBE = "subscribe"


@dataclass(frozen=True, slots=True)
class AuthorizationToken:
    """A signed delegation of rights over a trace topic.

    ``wire`` is the canonical encoding of :meth:`to_dict`, computed once
    when the token is built: it is what every trace carries
    (``Message.auth_token``) and what a verifier hashes for its cache key.
    """

    advertisement: TopicAdvertisement
    token_public_key: RSAPublicKey
    rights: TokenRights
    valid_from_ms: float
    valid_until_ms: float
    owner_signature: SignedEnvelope
    wire: Canonical = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "wire", Canonical.of(self.to_dict()))

    # -- creation ---------------------------------------------------------------

    @staticmethod
    def signed_fields(
        advertisement: TopicAdvertisement,
        token_public_key: RSAPublicKey,
        rights: TokenRights,
        valid_from_ms: float,
        valid_until_ms: float,
    ) -> dict:
        """The exact field dict the owner signature covers (§4.2)."""
        return {
            "trace_topic": advertisement.trace_topic.hex,
            "token_n": token_public_key.n,
            "token_e": token_public_key.e,
            "rights": rights.value,
            "valid_from_ms": valid_from_ms,
            "valid_until_ms": valid_until_ms,
        }

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
        valid_until = now_ms + duration_ms
        fields = cls.signed_fields(
            advertisement, token_keys.public, rights, now_ms, valid_until
        )
        signature = sign_payload(fields, owner_private_key)
        token = cls(
            advertisement=advertisement,
            token_public_key=token_keys.public,
            rights=rights,
            valid_from_ms=now_ms,
            valid_until_ms=valid_until,
            owner_signature=signature,
        )
        return token, token_keys.private

    # -- validation ----------------------------------------------------------------

    def expired(self, now_ms: float, skew_tolerance_ms: float = 100.0) -> bool:
        """Expiry check with NTP skew tolerance (the paper's 30-100 ms)."""
        return now_ms > self.valid_until_ms + skew_tolerance_ms

    def not_yet_valid(self, now_ms: float, skew_tolerance_ms: float = 100.0) -> bool:
        """Early-use check, skew-tolerant like :meth:`expired`."""
        return now_ms < self.valid_from_ms - skew_tolerance_ms

    def verify_owner_signature(self) -> None:
        """Check the token was signed by the trace-topic owner.

        The owner's public key comes from the TDN-signed advertisement the
        token carries, so a forger would also need to forge the TDN
        signature (verified separately by :class:`TokenVerifier`).
        """
        expected = self.signed_fields(
            self.advertisement,
            self.token_public_key,
            self.rights,
            self.valid_from_ms,
            self.valid_until_ms,
        )
        if self.owner_signature.payload != expected:
            raise TokenError("token signature covers different fields")
        try:
            verify_payload(self.owner_signature, self.advertisement.owner_public_key)
        except SignatureError as exc:
            raise TokenError(f"token not signed by topic owner: {exc}") from exc

    # -- wire form ----------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready wire form; ``from_dict`` round-trips it."""
        return {
            "advertisement": self.advertisement.to_dict(),
            "token_n": self.token_public_key.n,
            "token_e": self.token_public_key.e,
            "rights": self.rights.value,
            "valid_from_ms": self.valid_from_ms,
            "valid_until_ms": self.valid_until_ms,
            "owner_signature": self.owner_signature.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AuthorizationToken":
        """Parse a wire-form token; raises ``TokenError`` when malformed."""
        try:
            with Fields(data, cls) as fields:
                return cls(
                    advertisement=TopicAdvertisement.from_dict(fields.value("advertisement")),
                    token_public_key=RSAPublicKey(
                        fields.integer("token_n"), fields.integer("token_e")
                    ),
                    rights=fields.member("rights", TokenRights),
                    valid_from_ms=fields.number("valid_from_ms"),
                    valid_until_ms=fields.number("valid_until_ms"),
                    owner_signature=SignedEnvelope.from_dict(fields.value("owner_signature")),
                )
        except MalformedFrameError as exc:
            raise TokenError(f"malformed token: {exc}") from exc
