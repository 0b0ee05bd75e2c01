"""Message-level signing and hybrid sealing.

Two patterns recur throughout the paper's protocol:

* **Signing** (section 3.2): "The signing is done by computing the checksum
  for the message and encrypting this message digest with its private key."
  :func:`sign_payload` produces a :class:`SignedEnvelope` whose signature is
  an RSA PKCS#1 v1.5 signature over the canonical encoding of the payload.

* **Sealing** (sections 3.2, 5.1): "The response message is encrypted with a
  randomly generated secret key, and this secret key is encrypted using the
  entity's public key."  :func:`seal_for` implements exactly that hybrid
  scheme and :func:`open_sealed` its inverse.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.crypto.aes import AESKey
from repro.crypto.keys import SymmetricKey
from repro.crypto.rsa import RSAPrivateKey, RSAPublicKey
from repro.errors import DecryptionError, MalformedEnvelopeError, SignatureError
from repro.util.serialization import canonical_decode, canonical_encode


@dataclass(frozen=True, slots=True)
class SignedEnvelope:
    """A payload plus the signature and signer fingerprint."""

    payload: Any
    signature: bytes
    signer_fingerprint: bytes

    def payload_bytes(self) -> bytes:
        return canonical_encode(self.payload)

    def to_dict(self) -> dict:
        """Serializable rendering for embedding in messages."""
        return {
            "payload": self.payload,
            "signature": self.signature,
            "signer_fingerprint": self.signer_fingerprint,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SignedEnvelope":
        """Parse the wire mapping; raises :class:`MalformedEnvelopeError`."""
        try:
            return cls(
                payload=data["payload"],
                signature=bytes(data["signature"]),
                signer_fingerprint=bytes(data["signer_fingerprint"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedEnvelopeError(f"malformed signed envelope: {exc!r}") from exc


def sign_payload(payload: Any, private_key: RSAPrivateKey) -> SignedEnvelope:
    """Sign the canonical encoding of ``payload``."""
    encoded = canonical_encode(payload)
    return SignedEnvelope(
        payload=payload,
        signature=private_key.sign(encoded),
        signer_fingerprint=private_key.public.fingerprint(),
    )


def verify_payload(envelope: SignedEnvelope, public_key: RSAPublicKey) -> Any:
    """Verify an envelope; returns the payload or raises.

    Raises :class:`SignatureError` if the fingerprint does not match the
    presented key (the claimed signer is someone else) or if the signature
    itself fails — both are indistinguishable to an attacker but useful to
    separate in logs and tests.
    """
    if envelope.signer_fingerprint != public_key.fingerprint():
        raise SignatureError("envelope was not signed by the presented key")
    public_key.verify(envelope.payload_bytes(), envelope.signature)
    return envelope.payload


@dataclass(frozen=True, slots=True)
class SealedPayload:
    """Hybrid-encrypted payload: AES body + RSA-wrapped key."""

    wrapped_key: bytes
    algorithm: str
    padding: str
    ciphertext: bytes

    def to_dict(self) -> dict:
        return {
            "wrapped_key": self.wrapped_key,
            "algorithm": self.algorithm,
            "padding": self.padding,
            "ciphertext": self.ciphertext,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SealedPayload":
        return cls(
            wrapped_key=bytes(data["wrapped_key"]),
            algorithm=str(data["algorithm"]),
            padding=str(data["padding"]),
            ciphertext=bytes(data["ciphertext"]),
        )


def seal_for(
    payload: Any, recipient: RSAPublicKey, rng: random.Random, key_bits: int = 192
) -> SealedPayload:
    """Encrypt ``payload`` so only ``recipient`` can read it."""
    session_key = SymmetricKey.generate(rng, key_bits)
    ciphertext = session_key.encrypt(canonical_encode(payload), rng)
    wrapped = recipient.encrypt(session_key.key.material, rng)
    return SealedPayload(
        wrapped_key=wrapped,
        algorithm=session_key.algorithm,
        padding=session_key.padding,
        ciphertext=ciphertext,
    )


def open_sealed(sealed: SealedPayload, private_key: RSAPrivateKey) -> Any:
    """Decrypt a :class:`SealedPayload`; raises :class:`DecryptionError`."""
    key_material = private_key.decrypt(sealed.wrapped_key)
    session_key = SymmetricKey(
        key=AESKey(key_material), algorithm=sealed.algorithm, padding=sealed.padding
    )
    plaintext = session_key.decrypt(sealed.ciphertext)
    try:
        return canonical_decode(plaintext)
    except ValueError as exc:
        raise DecryptionError("sealed payload decoded to garbage") from exc
