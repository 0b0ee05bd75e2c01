"""Exception hierarchy for the tracing framework.

Every failure mode the paper's protocol can produce maps to a distinct
exception type so callers (and tests) can discriminate between, e.g., a
signature that failed to verify versus an authorization token that expired.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError, ValueError):
    """A component was constructed or wired with invalid parameters.

    Also a :class:`ValueError`: bad wiring is almost always a bad argument,
    and callers that predate the taxonomy catch it as one.
    """


class ValidationError(ReproError, ValueError):
    """A runtime value failed a domain validity check (range, format, units)."""


class MalformedFrameError(ValidationError):
    """A received mapping lacks a field or holds a value of the wrong type.

    The one error of :class:`repro.util.serialization.Fields`, and so of
    every ``from_dict``: it names the class being decoded and the key.
    """


class StatsError(ValidationError):
    """A statistics accumulator cannot answer (no samples, bad percentile)."""


class InstrumentError(ValidationError):
    """A metrics instrument was misused (kind conflict, decreasing counter)."""


class SimulationError(ReproError):
    """The discrete-event simulator was driven into an invalid state."""


class BenchmarkError(ReproError, RuntimeError):
    """An experiment run produced no usable measurement."""


# --- serialization ----------------------------------------------------------


class SerializationError(ReproError):
    """Base class for canonical-encoding failures."""


class SerializationDecodeError(SerializationError, ValueError):
    """Canonical bytes were truncated, malformed, or non-canonical."""


class SerializationTypeError(SerializationError, TypeError):
    """A value outside the canonical type universe was offered for encoding."""


class TransportError(ReproError):
    """A simulated transport could not deliver or accept a payload."""


class TopicError(ReproError, ValueError):
    """A topic string is malformed or violates constrained-topic syntax."""


class RoutingError(ReproError):
    """The broker network could not route a message."""


class NotConnectedError(ReproError):
    """An entity attempted an operation that requires a broker connection."""


# --- cryptography -----------------------------------------------------------


class CryptoError(ReproError):
    """Base class for cryptographic failures."""


class KeyMaterialError(CryptoError, ValueError):
    """A key was malformed, of the wrong type, or of the wrong size."""


class CryptoInputError(CryptoError, ValueError):
    """Non-key cryptographic input was invalid (block size, algorithm, modulus)."""


class SignatureError(CryptoError):
    """A digital signature failed to verify."""


class MalformedEnvelopeError(SignatureError, MalformedFrameError):
    """A signed envelope's wire mapping lacks a field or holds a wrong type.

    Also a :class:`MalformedFrameError`, so parsers of an enclosing mapping
    (token, registration request) report it as their own malformed input.
    """


class DecryptionError(CryptoError):
    """A ciphertext could not be decrypted (wrong key, corrupt data, padding)."""


class PaddingError(DecryptionError):
    """Block-cipher or PKCS#1 padding was invalid after decryption."""


class CertificateError(CryptoError):
    """An X.509-like certificate is invalid, expired, or untrusted."""


# --- discovery / authorization ---------------------------------------------


class TdnError(ReproError):
    """Base class for Topic Discovery Node failures."""


class DiscoveryError(TdnError):
    """A topic or broker discovery operation failed."""


class AuthorizationError(ReproError):
    """Base class for authorization failures (tokens, entitlements, ACLs)."""


class UnauthorizedError(AuthorizationError):
    """An entity attempted an action it is not authorized to perform."""


class TokenError(UnauthorizedError):
    """An authorization token is missing, malformed, expired, or forged."""


class RegistrationError(ReproError):
    """Traced-entity registration with a broker failed verification."""


class InterestError(ReproError):
    """The GUAGE_INTEREST protocol produced an invalid response."""


class AnalyticsError(ReproError):
    """The availability analytics store was misused or misconfigured."""


class AuditIncompleteError(AnalyticsError):
    """A state mutation has no corresponding journal evidence (audit gate)."""
