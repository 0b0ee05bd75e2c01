"""Entity credentials: a key pair plus its CA-issued certificate."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.crypto.certificates import Certificate, CertificateAuthority
from repro.crypto.keys import KeyPair
from repro.crypto.signing import SignedEnvelope, sign_payload


@dataclass(slots=True)
class EntityCredentials:
    """The credential bundle an entity holds.

    The certificate is what travels in messages ("the entity includes its
    credentials — a X.509 certificate", section 3.1); the private key stays
    local and produces the signatures that demonstrate possession
    (section 3.2).
    """

    subject: str
    keys: KeyPair
    certificate: Certificate

    @classmethod
    def issue(
        cls,
        subject: str,
        ca: CertificateAuthority,
        rng: random.Random,
        not_after_ms: float = float("inf"),
    ) -> "EntityCredentials":
        """Generate keys and obtain a certificate from ``ca``."""
        keys = KeyPair.generate(rng)
        certificate = ca.issue(subject, keys.public, not_after_ms=not_after_ms)
        return cls(subject=subject, keys=keys, certificate=certificate)

    def sign(self, payload: Any) -> SignedEnvelope:
        """Sign ``payload``, demonstrating possession of the private key."""
        return sign_payload(payload, self.keys.private)

    @property
    def public_key(self):
        """This entity's RSA public key (the certificate's subject key)."""
        return self.keys.public

    def __repr__(self) -> str:
        return f"<EntityCredentials {self.subject}>"
