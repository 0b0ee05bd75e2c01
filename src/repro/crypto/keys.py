"""Key abstractions shared by the protocol layers.

:class:`SymmetricKey` wraps an AES key together with the algorithm and
padding-scheme metadata that the paper's key-distribution payload carries
("a message containing the secret trace key, the encryption algorithm and
the padding scheme that will be used", section 5.1).

:class:`KeyPair` is a thin alias of the RSA pair used where the protocol
speaks of "randomly generated key pairs" inside authorization tokens.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.crypto.aes import AESKey, aes_cbc_decrypt, aes_cbc_encrypt, generate_aes_key
from repro.crypto.rsa import DEFAULT_KEY_BITS, RSAKeyPair, generate_rsa_keypair
from repro.errors import KeyMaterialError
from repro.util.serialization import Fields


@dataclass(frozen=True, slots=True)
class SymmetricKey:
    """A symmetric key plus its negotiated algorithm and padding scheme."""

    key: AESKey
    algorithm: str = "AES/CBC"
    padding: str = "PKCS7"

    @classmethod
    def generate(cls, rng: random.Random, bits: int = 192) -> "SymmetricKey":
        return cls(key=generate_aes_key(rng, bits))

    def _supported(self) -> "SymmetricKey":
        if self.algorithm != "AES/CBC" or self.padding != "PKCS7":
            raise KeyMaterialError(f"unsupported scheme {self.algorithm}/{self.padding}")
        return self

    def encrypt(self, plaintext: bytes, rng: random.Random) -> bytes:
        return aes_cbc_encrypt(self._supported().key, plaintext, rng)

    def decrypt(self, ciphertext: bytes) -> bytes:
        return aes_cbc_decrypt(self._supported().key, ciphertext)

    def to_dict(self) -> dict:
        """Serializable form for embedding in a key-distribution payload."""
        return {
            "key": self.key.material,
            "algorithm": self.algorithm,
            "padding": self.padding,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SymmetricKey":
        with Fields(data, cls) as fields:
            # a key nobody can use is refused on receipt, not at the first trace
            return cls(
                key=AESKey(fields.octets("key")),
                algorithm=fields.text("algorithm"),
                padding=fields.text("padding"),
            )._supported()


@dataclass(slots=True)
class KeyPair:
    """An asymmetric key pair owned by one principal."""

    rsa: RSAKeyPair = field(repr=False)

    @classmethod
    def generate(cls, rng: random.Random, bits: int = DEFAULT_KEY_BITS) -> "KeyPair":
        return cls(rsa=generate_rsa_keypair(rng, bits))

    @property
    def public(self):
        return self.rsa.public

    @property
    def private(self):
        return self.rsa.private
