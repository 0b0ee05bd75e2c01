"""Trace confidentiality (section 5.1).

"All trace messages, published by the broker, are encrypted using the
secret trace key.  Only the trackers in possession of the trace key can
decipher the contents of the trace messages."

The wrap keeps the trace topic outside the ciphertext (topics already
reveal the stream), and encrypts the type, payload and timing fields.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any

from repro.crypto.keys import SymmetricKey
from repro.errors import DecryptionError, MalformedFrameError
from repro.util.serialization import canonical_decode, canonical_encode, wire_record

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tracing.traces import TraceBody


@wire_record()
class SecuredTrace:
    """A trace body encrypted under its session's trace key.  ``secured``,
    any true value, tells a tracker to decrypt."""

    ciphertext: bytes
    secured: Any = None
    trace_topic: str | None = None


def wrap_trace_body(
    body: "TraceBody", trace_key: SymmetricKey, rng: random.Random
) -> SecuredTrace:
    """Encrypt a trace body under the session's secret trace key."""
    ciphertext = trace_key.encrypt(canonical_encode(body.to_dict()), rng)
    return SecuredTrace(ciphertext=ciphertext, secured=True, trace_topic=body.trace_topic)


def unwrap_trace_body(wrapped: Any, trace_key: SymmetricKey) -> dict:
    """The trace body mapping a :class:`SecuredTrace` mapping holds; raises
    :class:`DecryptionError`."""
    try:
        secured = SecuredTrace.from_dict(wrapped)
    except MalformedFrameError as exc:
        raise DecryptionError(f"body is not a secured trace: {exc}") from exc
    if not secured.secured:
        raise DecryptionError("body is not a secured trace")
    plaintext = trace_key.decrypt(secured.ciphertext)
    try:
        body: Any = canonical_decode(plaintext)
    except ValueError as exc:
        # corruption in a non-final block survives the padding check but
        # yields garbage plaintext
        raise DecryptionError("secured trace decrypted to garbage") from exc
    if not isinstance(body, dict):
        raise DecryptionError("secured trace decrypted to a non-dict")
    return body
