"""Secure distribution of the secret trace key (section 5.1).

"To create this secure payload, the broker first creates a message
containing the secret trace key, the encryption algorithm and the padding
scheme that will be used.  The broker uses a combination of the tracker's
credential and a randomly generated secret key to secure the payload.
Only the tracker in possession of the private key associated with its
credentials can decipher the contents of the message and retrieve the
secret trace key."

That is exactly the hybrid :func:`~repro.crypto.signing.seal_for` scheme.
"""

from __future__ import annotations

import random

from repro.crypto.keys import SymmetricKey
from repro.crypto.rsa import RSAPrivateKey, RSAPublicKey
from repro.crypto.signing import SealedPayload, open_sealed, seal_for
from repro.util.serialization import wire_record


@wire_record("key_distribution")
class KeyDistributionPayload:
    """The sealed trace-key message published to one tracker."""

    trace_topic: str
    sealed: SealedPayload


def build_key_payload(
    trace_key: SymmetricKey,
    trace_topic: str,
    tracker_public_key: RSAPublicKey,
    rng: random.Random,
) -> KeyDistributionPayload:
    """Seal the trace key (+ algorithm + padding) to one tracker."""
    sealed = seal_for(trace_key.to_dict(), tracker_public_key, rng)
    return KeyDistributionPayload(trace_topic=trace_topic, sealed=sealed)


def open_key_payload(
    payload: KeyDistributionPayload, tracker_private_key: RSAPrivateKey
) -> SymmetricKey:
    """Tracker side: recover the secret trace key."""
    return SymmetricKey.from_dict(open_sealed(payload.sealed, tracker_private_key))
