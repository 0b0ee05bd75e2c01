"""X.509-like credentials.

The paper requires entities to present "a X.509 certificate" as credentials
when creating topics, registering for tracing, and discovering topics.  We
model the parts of X.509 the protocol actually exercises: a subject name
bound to a public key, a validity window, and an issuer signature that can
be chained back to a trusted certificate authority.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Annotated

from repro.crypto.keys import KeyPair
from repro.crypto.rsa import RSAPublicKey
from repro.errors import CertificateError, SignatureError
from repro.util.serialization import canonical_encode, wire_record


@wire_record()
class Certificate:
    """A signed binding of ``subject`` to ``public_key``.

    ``issuer`` names the CA (or the subject itself, when self-signed);
    ``signature`` is the issuer's RSA signature over the canonical encoding
    of all other fields.  It travels embedded in registration requests,
    its key as ``n`` / ``e``; an expiry of ``inf`` means "never".
    """

    subject: str
    issuer: str
    public_key: RSAPublicKey
    serial: int
    not_before_ms: float
    not_after_ms: Annotated[float, "unbounded"]
    signature: bytes

    def to_be_signed(self) -> bytes:
        """The canonical bytes the issuer signs: every field but the signature."""
        fields = self.to_dict()
        del fields["signature"]
        return canonical_encode(fields)

    def fingerprint(self) -> bytes:
        return self.public_key.fingerprint()

    def check_validity(self, now_ms: float) -> None:
        """Raise if the certificate is outside its validity window."""
        if now_ms < self.not_before_ms:
            raise CertificateError(
                f"certificate for {self.subject!r} not yet valid"
            )
        if now_ms > self.not_after_ms:
            raise CertificateError(f"certificate for {self.subject!r} expired")


class CertificateAuthority:
    """A simple single-level CA.

    Issues subject certificates and verifies presented certificates against
    its own root key.  One CA instance plays the role of the deployment's
    trust anchor; every broker and TDN holds a reference to it (or just its
    root certificate) for verification.
    """

    def __init__(self, name: str, rng: random.Random) -> None:
        self.name = name
        self._rng = rng
        self._keys = KeyPair.generate(rng)
        self._serial = 0
        self.root_certificate = self.issue(name, self._keys.public, not_before_ms=0.0)

    #: Default backdating of not_before: real CAs backdate issuance so a
    #: verifier whose clock runs behind (NTP skew) does not reject a
    #: freshly issued certificate.
    BACKDATE_MS = 3_600_000.0

    def issue(
        self,
        subject: str,
        public_key: RSAPublicKey,
        not_before_ms: float | None = None,
        not_after_ms: float = float("inf"),
    ) -> Certificate:
        """Issue a certificate binding ``subject`` to ``public_key``.

        ``not_before_ms`` defaults to one hour in the past (see
        :data:`BACKDATE_MS`).
        """
        if not_before_ms is None:
            not_before_ms = -self.BACKDATE_MS
        self._serial += 1
        unsigned = Certificate(
            subject=subject,
            issuer=self.name,
            public_key=public_key,
            serial=self._serial,
            not_before_ms=not_before_ms,
            not_after_ms=not_after_ms,
            signature=b"",
        )
        return replace(unsigned, signature=self._keys.private.sign(unsigned.to_be_signed()))

    def verify(self, certificate: Certificate, now_ms: float | None = None) -> None:
        """Raise :class:`CertificateError` unless ``certificate`` is valid.

        Checks issuer name, issuer signature, and (when ``now_ms`` is given)
        the validity window.
        """
        if certificate.issuer != self.name:
            raise CertificateError(
                f"certificate issued by {certificate.issuer!r}, not {self.name!r}"
            )
        try:
            self._keys.public.verify(
                certificate.to_be_signed(), certificate.signature
            )
        except SignatureError as exc:
            raise CertificateError(
                f"certificate signature for {certificate.subject!r} invalid"
            ) from exc
        if now_ms is not None:
            certificate.check_validity(now_ms)
