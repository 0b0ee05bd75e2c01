"""Message-level signing and hybrid sealing.

Two patterns recur throughout the paper's protocol:

* **Signing** (section 3.2): "The signing is done by computing the checksum
  for the message and encrypting this message digest with its private key."
  :func:`sign_payload` produces a :class:`SignedEnvelope` whose signature is
  an RSA PKCS#1 v1.5 signature over the canonical encoding of the payload.
  The envelope carries no copy of the payload: :func:`verify_signed` checks
  it against the statement its verifier rebuilds.  A message body is signed
  as the :class:`~repro.util.serialization.Canonical` it travels as, so it
  is encoded once, by its signer: :func:`verify_signed_body` checks the
  signature over the bytes received and reads the value from them.

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
    Canonical,
    canonical_decode,
    canonical_encode,
    read_record,
    wire_record,
)


@wire_record()
class SignedEnvelope:
    """A signature and its signer's fingerprint; the statement travels apart."""

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
        signature=private_key.sign(encoded),
        signer_fingerprint=private_key.public.fingerprint(),
    )


def verify_signed(envelope: SignedEnvelope, expected: Any, public_key: RSAPublicKey) -> None:
    """Check that ``envelope`` signs exactly ``expected`` under ``public_key``.

    The signature is verified over the canonical bytes of ``expected``, so a
    statement that differs from the signed one, even only where Python
    equality does not look (``True`` for ``1``, ``5`` for ``5.0``), fails.
    Raises :class:`SignatureError` on every failure: the fingerprint names
    another signer than the presented key, or the signature does not verify
    over ``expected``.
    """
    if envelope.signer_fingerprint != public_key.fingerprint():
        raise SignatureError("envelope was not signed by the presented key")
    public_key.verify(canonical_encode(expected), envelope.signature)


def verify_signed_body(signature: Any, body: Any, public_key: RSAPublicKey) -> Any:
    """:func:`verify_signed` of the ``signature`` mapping a message carries
    beside its ``body``, over the body's bytes as received; returns the
    value they hold (:func:`signed_value`).

    Raises :class:`MalformedEnvelopeError` when the mapping does not parse,
    the body is not a :class:`Canonical` or its bytes do not decode, and
    :class:`SignatureError` when the signature does not verify.
    """
    envelope = SignedEnvelope.from_dict(signature)
    value = signed_value(body)
    # the encoding of a Canonical is its data: nothing is re-encoded
    verify_signed(envelope, body, public_key)
    return value


def signed_value(body: Any) -> Any:
    """The value a signed ``body`` holds, verified or not; raises
    :class:`MalformedEnvelopeError` for a body that is not a
    :class:`Canonical` or whose bytes do not decode."""
    if type(body) is not Canonical:
        raise MalformedEnvelopeError(
            f"a signed body travels as Canonical bytes, got {type(body).__name__}"
        )
    try:
        return body.value
    except SerializationDecodeError as exc:
        raise MalformedEnvelopeError(f"signed body does not decode: {exc}") from exc


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
