"""Broker-side token verification and the publish guard.

"All trace messages generated by a broker need to include the token.
Messages received at a broker, from a neighboring broker, are discarded if
they do not possess this authorization token.  A broker will also verify
the validity of the token" (section 4.3).  The guard below implements that
check for constrained *Traces* topics, charging the calibrated
``TOKEN_VERIFY`` cost per message (with the heavier advertisement
verification amortized by a cache per trace topic and owner key).
"""

from __future__ import annotations

from typing import Generator

from repro.auth.cache import TokenVerificationCache
from repro.auth.tokens import DEFAULT_SKEW_TOLERANCE_MS, AuthorizationToken, TokenRights
from repro.crypto.costmodel import CryptoOp
from repro.crypto.rsa import RSAPublicKey
from repro.errors import SignatureError, TokenError
from repro.messaging.broker import Broker
from repro.messaging.constrained import (
    BROKER_CONSTRAINER,
    AllowedActions,
    ConstrainedTopic,
)
from repro.messaging.message import Message
from repro.sim.engine import Event
from repro.sim.machine import Machine
from repro.util.identifiers import UUID128
from repro.util.serialization import Canonical

#: Event-type element identifying trace traffic on constrained topics.
TRACES_EVENT_TYPE = "Traces"


def _token_bytes(wire: Canonical) -> bytes:
    """The bytes a token travels as; anything but a :class:`Canonical` is a
    :class:`TokenError`, raised before anything is decoded."""
    if type(wire) is not Canonical:
        raise TokenError(f"token must travel as Canonical bytes, got {type(wire).__name__}")
    return wire.data


class TokenVerifier:
    """Validates authorization tokens against trusted TDN keys.

    When a :class:`~repro.auth.cache.TokenVerificationCache` is attached
    (``cache=`` or assignment), callers such as the publish guard below
    answer repeat verifications of a byte-identical token from the cache
    and skip the ``TOKEN_VERIFY`` charge entirely; revoking a token (or a
    broker restart clearing the cache) forces the next frame back through
    the full check.
    """

    def __init__(
        self,
        trusted_tdn_keys: dict[str, RSAPublicKey],
        cache: TokenVerificationCache | None = None,
    ) -> None:
        self.trusted_tdn_keys = dict(trusted_tdn_keys)
        self.skew_tolerance_ms = DEFAULT_SKEW_TOLERANCE_MS
        self.cache = cache
        # (trace topic, owner key) pairs a trusted TDN has signed: the owner
        # key is part of the entry, or an advertisement naming a verified
        # topic would lend its TDN check to any owner key
        self._advertisement_cache: set[tuple[UUID128, RSAPublicKey]] = set()
        # the bytes of revoked tokens; verify() refuses them outright
        self._revoked: set[bytes] = set()

    def revoke(self, wire: Canonical) -> None:
        """Revoke a token by its wire form: evict it and refuse it forever."""
        data = _token_bytes(wire)
        self._revoked.add(data)
        if self.cache is not None:
            self.cache.discard(data)

    def verify(self, wire: Canonical, now_ms: float) -> AuthorizationToken:
        """Full validation; raises :class:`TokenError` on any failure.

        Checks, in order: the wire type, revocation, that the bytes decode
        to a well-formed token, validity window with NTP skew tolerance,
        delegated rights, (once per trace topic and owner key) the issuing
        TDN's signature over the advertisement, and the owner's signature
        over the token fields.
        """
        if _token_bytes(wire) in self._revoked:
            raise TokenError("token has been revoked")
        token = AuthorizationToken.from_wire(wire)

        if token.expired(now_ms, self.skew_tolerance_ms):
            raise TokenError(
                f"token expired at {token.valid_until_ms} (now {now_ms})"
            )
        if token.not_yet_valid(now_ms, self.skew_tolerance_ms):
            raise TokenError("token not yet valid")
        if token.rights is not TokenRights.PUBLISH:
            raise TokenError(f"token delegates {token.rights.value}, not publish")

        self._verify_advertisement(token)
        token.verify_owner_signature()
        return token

    def check(
        self, wire: Canonical, machine: Machine
    ) -> Generator[Event, None, AuthorizationToken]:
        """The §4.3 check as one process step on ``machine``; raises like :meth:`verify`.

        With a cache attached, the received bytes are looked up first:
        verified before and still inside its validity window, the token
        is answered at no charge and nothing is decoded.  Otherwise
        ``TOKEN_VERIFY`` is charged, the token decoded, fully verified and
        stored.
        """
        cache = self.cache
        if cache is not None:
            data = _token_bytes(wire)
            cached = cache.lookup(data, machine.now(), self.skew_tolerance_ms)
            if cached is not None:
                return cached
        yield from machine.charge(CryptoOp.TOKEN_VERIFY)
        token = self.verify(wire, machine.now())
        if cache is not None:
            cache.store(data, token)
        return token

    def _verify_advertisement(self, token: AuthorizationToken) -> None:
        advertisement = token.advertisement
        entry = (advertisement.fields.trace_topic, advertisement.fields.owner_public_key)
        if entry in self._advertisement_cache:
            return
        try:
            advertisement.verify_provenance(self.trusted_tdn_keys)
        except SignatureError as exc:
            raise TokenError(str(exc)) from exc
        self._advertisement_cache.add(entry)


class TraceAuthorizationGuard:
    """Publish guard enforcing tokens on constrained trace publications.

    Installed on every broker (``broker.publish_guards.append(guard)``).
    Applies to constrained topics with event type *Traces* that are
    broker-constrained and Publish-Only — i.e. exactly the topics traces
    are published over (Table 2).  Messages funneled *to* a broker over
    Subscribe-Only topics (registrations, ping responses) are exempt here;
    they are verified by the tracing protocol itself.
    """

    def __init__(self, verifier: TokenVerifier) -> None:
        self.verifier = verifier

    @staticmethod
    def applies_to(constrained: ConstrainedTopic | None) -> bool:
        """True for a broker-owned, Publish-Only constrained trace topic.

        ``constrained`` is the topic's parsed form, None for an
        unconstrained topic (:meth:`Broker.constrained_form
        <repro.messaging.broker.Broker.constrained_form>` holds it per
        topic string).
        """
        return (
            constrained is not None
            and constrained.event_type == TRACES_EVENT_TYPE
            and constrained.allowed_actions is AllowedActions.PUBLISH_ONLY
            and constrained.constrainer == BROKER_CONSTRAINER
        )

    def __call__(
        self, broker: Broker, message: Message, origin: str, from_neighbor: bool
    ) -> Generator[Event, None, bool]:
        """Admit or reject one publication; generator so charges can yield.

        A cached verification (:meth:`TokenVerifier.check`) is the hot-path
        saving the committed codec seed pins (docs/PERFORMANCE.md).
        """
        if not self.applies_to(broker.constrained_form(message.topic.canonical)):
            return True
        if message.auth_token is None:
            broker.metrics.counter("auth.missing_token").inc()
            return False
        try:
            yield from self.verifier.check(message.auth_token, broker.machine)
        except TokenError as exc:
            broker.metrics.counter("auth.invalid_token").inc()
            broker.monitor.journal.record(
                broker.sim.now, "token_rejected", origin=origin, reason=str(exc)
            )
            return False
        return True
