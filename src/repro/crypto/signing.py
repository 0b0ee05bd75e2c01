"""Message-level signing and hybrid sealing.

Two patterns recur throughout the paper's protocol:

* **Signing** (section 3.2): "The signing is done by computing the checksum
  for the message and encrypting this message digest with its private key."
  :func:`sign_payload` produces a :class:`SignedEnvelope` whose signature is
  an RSA PKCS#1 v1.5 signature over the canonical encoding of the payload,
  and :func:`verify_signed` is the one check of an envelope against the
  statement its verifier expects.

* **Sealing** (sections 3.2, 5.1): "The response message is encrypted with a
  randomly generated secret key, and this secret key is encrypted using the
  entity's public key."  :func:`seal_for` implements exactly that hybrid
  scheme and :func:`open_sealed` its inverse.
"""

from __future__ import annotations

import random
from typing import Any

from repro.crypto.aes import AESKey
from repro.crypto.keys import SymmetricKey
from repro.crypto.rsa import RSAPrivateKey, RSAPublicKey
from repro.errors import (
    DecryptionError,
    KeyMaterialError,
    MalformedEnvelopeError,
    MalformedFrameError,
    SerializationDecodeError,
    SignatureError,
)
from repro.util.serialization import (
    canonical_decode,
    canonical_encode,
    read_record,
    wire_record,
)


@wire_record()
class SignedEnvelope:
    """A payload plus the signature and signer fingerprint."""

    payload: Any
    signature: bytes
    signer_fingerprint: bytes

    @classmethod
    def from_dict(cls, data: dict) -> "SignedEnvelope":
        """Parse the wire mapping; raises :class:`MalformedEnvelopeError`."""
        try:
            return read_record(cls, data)
        except MalformedFrameError as exc:
            raise MalformedEnvelopeError(str(exc)) from exc


def sign_payload(payload: Any, private_key: RSAPrivateKey) -> SignedEnvelope:
    """Sign the canonical encoding of ``payload``."""
    encoded = canonical_encode(payload)
    return SignedEnvelope(
        payload=payload,
        signature=private_key.sign(encoded),
        signer_fingerprint=private_key.public.fingerprint(),
    )


def verify_signed(envelope: SignedEnvelope, expected: Any, public_key: RSAPublicKey) -> bool:
    """Check that ``envelope`` signs exactly ``expected`` under ``public_key``.

    False when the envelope carries some other payload.  The signature is
    verified over the canonical bytes of ``expected`` itself, never over
    the envelope's copy, so a payload that differs from it only where
    Python equality does not look (``True`` for ``1``, ``5`` for ``5.0``)
    fails to verify.  Raises :class:`SignatureError` if the fingerprint
    does not match the presented key (the claimed signer is someone else)
    or if the signature itself fails — both are indistinguishable to an
    attacker but useful to separate in logs and tests.
    """
    if envelope.payload != expected:
        return False
    if envelope.signer_fingerprint != public_key.fingerprint():
        raise SignatureError("envelope was not signed by the presented key")
    public_key.verify(canonical_encode(expected), envelope.signature)
    return True


def verify_signed_body(signature: Any, body: Any, public_key: RSAPublicKey) -> bool:
    """:func:`verify_signed` of the ``signature`` mapping a message carries
    beside its ``body``; raises :class:`MalformedEnvelopeError` when the
    mapping does not parse."""
    return verify_signed(SignedEnvelope.from_dict(signature), body, public_key)


@wire_record()
class SealedPayload:
    """Hybrid-encrypted payload: AES body + RSA-wrapped key."""

    wrapped_key: bytes
    algorithm: str
    padding: str
    ciphertext: bytes


def seal_for(payload: Any, recipient: RSAPublicKey, rng: random.Random) -> SealedPayload:
    """Encrypt ``payload`` so only ``recipient`` can read it (AES-192 session key)."""
    session_key = SymmetricKey.generate(rng)
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
    try:
        session_key = SymmetricKey(AESKey(key_material), sealed.algorithm, sealed.padding)
        return canonical_decode(session_key.decrypt(sealed.ciphertext))
    except (KeyMaterialError, SerializationDecodeError) as exc:
        raise DecryptionError(f"sealed payload unwraps to garbage: {exc}") from exc
