"""Validity-window-aware LRU cache of verified authorization tokens.

Token verification costs a calibrated ``TOKEN_VERIFY`` charge (about 2 ms
of virtual time, Table 3) and the paper requires it on *every* constrained
trace frame at *every* hop (section 4.3).  Tokens, however, are stable for
their whole validity window: the same byte-identical token rides thousands
of consecutive frames.  This cache extends the advertisement
cache of :mod:`repro.auth.verification` down to whole tokens — a broker
(or tracker) pays the full verification once per distinct token and then
answers from the cache until the token expires, is revoked, or is evicted.

Cache keys are the SHA-1 digest of the token's canonical bytes as they
travel (``AuthorizationToken.wire``), so a refreshed token (new validity
window, new bytes) can never alias a stale entry.  Every
``lookup``/``store`` outcome is counted on the deployment registry
(``auth.token.cache.{hit,miss,evicted}``) so perf PRs can cite hit rates
straight from a snapshot (docs/PERFORMANCE.md).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.auth.tokens import AuthorizationToken
from repro.crypto.digest import sha1_digest
from repro.errors import ConfigurationError, TokenError
from repro.obs import MetricsRegistry
from repro.util.serialization import Canonical

#: Default entry capacity; sized for "every live session on one broker".
DEFAULT_TOKEN_CACHE_CAPACITY = 256


def token_digest(wire: Canonical) -> bytes:
    """Stable cache key: SHA-1 over the token's canonical bytes, as received.

    Nothing is encoded or decoded: the digest covers exactly the bytes a
    cache miss would decode and verify.  Anything but a :class:`Canonical`
    is a :class:`TokenError`, checked before the bytes are touched.
    """
    if type(wire) is not Canonical:
        raise TokenError(f"token must travel as Canonical bytes, got {type(wire).__name__}")
    return sha1_digest(wire.data)


class TokenVerificationCache:
    """LRU map of token digest -> verified :class:`AuthorizationToken`.

    The cache never *extends* trust: entries are only written after a full
    :meth:`TokenVerifier.verify` pass, and :meth:`lookup` re-checks the
    validity window on every read, so an expired token is a miss (and is
    dropped) no matter how recently it verified.  Revocation and broker
    restarts invalidate entries via :meth:`discard` / :meth:`clear`.
    """

    def __init__(
        self,
        metrics: MetricsRegistry,
        capacity: int = DEFAULT_TOKEN_CACHE_CAPACITY,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"token cache capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self._entries: OrderedDict[bytes, AuthorizationToken] = OrderedDict()
        # wire bytes -> token_digest, up to ``capacity`` entries: the same
        # token bytes ride every frame of a session
        self._digests: dict[bytes, bytes] = {}
        # held, and materialized here so snapshots show explicit zeros
        self._hits = metrics.counter("auth.token.cache.hit")
        self._misses = metrics.counter("auth.token.cache.miss")
        self._evictions = metrics.counter("auth.token.cache.evicted")

    # -- cache protocol --------------------------------------------------------

    def digest(self, wire: Canonical) -> bytes:
        """:func:`token_digest` of ``wire``, computed once per distinct bytes."""
        if type(wire) is not Canonical:
            return token_digest(wire)  # raises TokenError
        digests = self._digests
        data = wire.data
        digest = digests.get(data)
        if digest is None:
            digest = token_digest(wire)
            if len(digests) >= self.capacity:
                del digests[next(iter(digests))]
            digests[data] = digest
        return digest

    def lookup(
        self, digest: bytes, now_ms: float, skew_tolerance_ms: float
    ) -> AuthorizationToken | None:
        """The cached token, or None (counted as a miss) when absent/expired."""
        token = self._entries.get(digest)
        if token is None:
            self._misses.inc()
            return None
        if token.expired(now_ms, skew_tolerance_ms):
            # validity window over: the entry is dead weight, not a hit
            del self._entries[digest]
            self._misses.inc()
            return None
        self._entries.move_to_end(digest)
        self._hits.inc()
        return token

    def store(self, digest: bytes, token: AuthorizationToken) -> None:
        """Remember a fully verified token, evicting the LRU entry if full."""
        if digest in self._entries:
            self._entries.move_to_end(digest)
            self._entries[digest] = token
            return
        while len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self._evictions.inc()
        self._entries[digest] = token

    def discard(self, digest: bytes) -> None:
        """Drop one entry (revocation); a no-op when absent."""
        self._entries.pop(digest, None)

    def clear(self) -> None:
        """Forget everything — a restarted broker starts cold."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, digest: bytes) -> bool:
        return digest in self._entries
