"""Authorization (section 4): credentials, delegation tokens, enforcement.

Three mechanisms combine to ensure that only authorized entities generate,
route and consume traces:

* every trace-related message initiated by an entity is signed with the
  entity's credentials (section 4.2);
* brokers publishing traces must present an authorization token the traced
  entity delegated to them, and every routing broker verifies it before
  forwarding (section 4.3);
* trace topics are unguessable 128-bit UUIDs whose discovery is restricted
  at the TDN (section 4.1).

Repeat verifications of a byte-identical token are answered by the
:class:`TokenVerificationCache` (docs/PERFORMANCE.md) until expiry,
revocation, or a broker restart clears it.
"""

from repro.auth.cache import TokenVerificationCache
from repro.auth.credentials import EntityCredentials
from repro.auth.tokens import AuthorizationToken, TokenRights
from repro.auth.verification import TokenVerifier, TraceAuthorizationGuard

__all__ = [
    "EntityCredentials",
    "AuthorizationToken",
    "TokenRights",
    "TokenVerificationCache",
    "TokenVerifier",
    "TraceAuthorizationGuard",
]
