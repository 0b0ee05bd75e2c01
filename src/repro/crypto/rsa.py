"""Textbook RSA with PKCS#1 v1.5 style padding (simulation-grade).

The paper signs with "1024-bit RSA with 160-bit SHA-1 and PKCS#1 padding"
(section 6).  We implement:

* key generation (two random primes, e = 65537, CRT parameters),
* EMSA-PKCS1-v1_5 signatures over a SHA-1 DigestInfo,
* EME-PKCS1-v1_5 encryption (random non-zero padding bytes).

Default key size in the simulator is 512 bits purely for speed; the
benchmark cost model charges virtual time calibrated to 1024-bit hardware
regardless, so simulated latencies are unaffected by the real key size.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.crypto import digest as _digest
from repro.crypto.primes import generate_prime, modinv
from repro.errors import DecryptionError, KeyMaterialError, PaddingError, SignatureError
from repro.util.serialization import wire_record

#: Simulation default modulus size (bits).  See module docstring.
DEFAULT_KEY_BITS = 512

#: DER prefix of DigestInfo for SHA-1 (RFC 8017 section 9.2 notes).
_SHA1_DIGEST_INFO_PREFIX = bytes.fromhex("3021300906052b0e03021a05000414")

#: Shortest modulus (bytes) that can sign: EMSA-PKCS1-v1_5 needs the SHA-1
#: DigestInfo plus 11 bytes of header and padding: 46.
MIN_SIGNING_MODULUS_BYTES = len(_SHA1_DIGEST_INFO_PREFIX) + 20 + 11


@dataclass(frozen=True, slots=True)
class RSAPublicKey:
    """RSA public key (n, e).

    Equality, hash and repr are on ``n`` and ``e`` alone; the fingerprint
    is computed once, when the key is built.
    """

    n: int
    e: int
    _fingerprint: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # a received key must not be able to raise OverflowError out of
        # fingerprint() or verify() later
        if self.n <= 0 or not 0 < self.e < 1 << 32:
            raise KeyMaterialError("RSA public key needs n > 0 and 0 < e < 2**32")
        material = self.n.to_bytes(self.byte_length, "big") + self.e.to_bytes(4, "big")
        object.__setattr__(self, "_fingerprint", _digest.sha1_digest(material))

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def fingerprint(self) -> bytes:
        """Stable 20-byte identifier for this key: SHA-1 of ``n`` and ``e``."""
        return self._fingerprint

    def verify(self, message: bytes, signature: bytes) -> None:
        """Verify an EMSA-PKCS1-v1_5 SHA-1 signature; raise on failure."""
        k = self.byte_length
        if len(signature) != k:
            raise SignatureError(
                f"signature length {len(signature)} != modulus length {k}"
            )
        s = int.from_bytes(signature, "big")
        if s >= self.n:
            raise SignatureError("signature representative out of range")
        em = pow(s, self.e, self.n).to_bytes(k, "big")
        expected = _emsa_pkcs1_v15(message, k)
        if em != expected:
            raise SignatureError("signature does not verify")

    def encrypt(self, plaintext: bytes, rng: random.Random) -> bytes:
        """EME-PKCS1-v1_5 encryption of a short plaintext."""
        k = self.byte_length
        max_len = k - 11
        if len(plaintext) > max_len:
            raise KeyMaterialError(
                f"plaintext too long for RSA block: {len(plaintext)} > {max_len}"
            )
        pad_len = k - 3 - len(plaintext)
        padding = bytes(rng.randrange(1, 256) for _ in range(pad_len))
        em = b"\x00\x02" + padding + b"\x00" + plaintext
        m = int.from_bytes(em, "big")
        return pow(m, self.e, self.n).to_bytes(k, "big")


@wire_record()
class RSAPrivateKey:
    """RSA private key with CRT acceleration parameters.

    Equality, hash and repr are on the eight numbers alone; the public half
    is built once, with the key, so its ``n`` and ``e`` are validated here.
    On the wire (sealed, section 4.3) it is the eight numbers.
    """

    n: int
    e: int
    d: int
    p: int
    q: int
    d_p: int
    d_q: int
    q_inv: int
    _public: RSAPublicKey = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_public", RSAPublicKey(self.n, self.e))

    @property
    def public(self) -> RSAPublicKey:
        return self._public

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def _private_op(self, c: int) -> int:
        """c^d mod n using the Chinese Remainder Theorem."""
        m1 = pow(c, self.d_p, self.p)
        m2 = pow(c, self.d_q, self.q)
        h = (self.q_inv * (m1 - m2)) % self.p
        return m2 + self.q * h

    def sign(self, message: bytes) -> bytes:
        """EMSA-PKCS1-v1_5 signature with SHA-1."""
        k = self.byte_length
        em = _emsa_pkcs1_v15(message, k)
        m = int.from_bytes(em, "big")
        return self._private_op(m).to_bytes(k, "big")

    def decrypt(self, ciphertext: bytes) -> bytes:
        """Inverse of :meth:`RSAPublicKey.encrypt`."""
        k = self.byte_length
        if len(ciphertext) != k:
            raise DecryptionError(
                f"ciphertext length {len(ciphertext)} != modulus length {k}"
            )
        c = int.from_bytes(ciphertext, "big")
        if c >= self.n:
            raise DecryptionError("ciphertext representative out of range")
        em = self._private_op(c).to_bytes(k, "big")
        if em[0:2] != b"\x00\x02":
            raise PaddingError("bad EME-PKCS1 header")
        try:
            sep = em.index(b"\x00", 2)
        except ValueError:
            raise PaddingError("missing EME-PKCS1 separator") from None
        if sep < 10:  # at least 8 padding bytes
            raise PaddingError("EME-PKCS1 padding too short")
        return em[sep + 1 :]


@dataclass(frozen=True, slots=True)
class RSAKeyPair:
    """Convenience bundle of matched public and private keys."""

    public: RSAPublicKey
    private: RSAPrivateKey


def generate_rsa_keypair(
    rng: random.Random, bits: int = DEFAULT_KEY_BITS, e: int = 65537
) -> RSAKeyPair:
    """Generate a fresh RSA key pair of ``bits`` modulus bits.

    ``e`` must be odd, at least 3 and below 2**32; prime pairs are drawn
    until ``e`` is coprime to (p - 1)(q - 1).
    """
    if bits < 128 or bits % 2:
        raise KeyMaterialError(f"modulus bits must be even and >= 128, got {bits}")
    if not 3 <= e < 1 << 32 or e % 2 == 0:
        raise KeyMaterialError(f"public exponent must be odd, >= 3 and < 2**32, got {e}")
    half = bits // 2
    while True:
        p = generate_prime(half, rng)
        q = generate_prime(half, rng)
        if p == q:
            continue
        phi = (p - 1) * (q - 1)
        if math.gcd(e, phi) != 1:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        d = modinv(e, phi)
        private = RSAPrivateKey(
            n=n, e=e, d=d, p=p, q=q,
            d_p=d % (p - 1), d_q=d % (q - 1), q_inv=modinv(q, p),
        )
        return RSAKeyPair(public=private.public, private=private)


def _emsa_pkcs1_v15(message: bytes, em_len: int) -> bytes:
    """EMSA-PKCS1-v1_5 encoding of SHA-1(message) into ``em_len`` bytes."""
    t = _SHA1_DIGEST_INFO_PREFIX + _digest.sha1_digest(message)
    if em_len < MIN_SIGNING_MODULUS_BYTES:
        raise KeyMaterialError("modulus too small for EMSA-PKCS1-v1_5 with SHA-1")
    ps = b"\xff" * (em_len - len(t) - 3)
    return b"\x00\x01" + ps + b"\x00" + t
