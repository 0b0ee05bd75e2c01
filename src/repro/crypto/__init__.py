"""Simulation-grade cryptography substrate.

The paper's implementation used BouncyCastle v1.3 with 1024-bit RSA,
160-bit SHA-1 (PKCS#1 padding) for signatures and 192-bit AES for symmetric
encryption (section 6).  We reimplement those primitives in pure Python so
that the protocol's security properties are *functionally real* inside the
simulation: a tampered message genuinely fails signature verification, the
wrong key genuinely fails to decrypt.

.. warning::
   This is textbook cryptography for simulation and education.  It is not
   constant-time, not side-channel hardened, and must never be used to
   protect real data.
"""

from repro.crypto.digest import sha1_digest
from repro.crypto.rsa import RSAKeyPair, RSAPublicKey, RSAPrivateKey, generate_rsa_keypair
from repro.crypto.aes import AESKey, aes_cbc_encrypt, aes_cbc_decrypt, generate_aes_key
from repro.crypto.keys import SymmetricKey, KeyPair
from repro.crypto.signing import sign_payload, verify_payload, SignedEnvelope, seal_for, open_sealed, SealedPayload
from repro.crypto.certificates import Certificate, CertificateAuthority
from repro.crypto.costmodel import CryptoCostModel, CryptoOp, PAPER_CALIBRATION

__all__ = [
    "sha1_digest",
    "RSAKeyPair",
    "RSAPublicKey",
    "RSAPrivateKey",
    "generate_rsa_keypair",
    "AESKey",
    "aes_cbc_encrypt",
    "aes_cbc_decrypt",
    "generate_aes_key",
    "SymmetricKey",
    "KeyPair",
    "sign_payload",
    "verify_payload",
    "SignedEnvelope",
    "seal_for",
    "open_sealed",
    "SealedPayload",
    "Certificate",
    "CertificateAuthority",
    "CryptoCostModel",
    "CryptoOp",
    "PAPER_CALIBRATION",
]
