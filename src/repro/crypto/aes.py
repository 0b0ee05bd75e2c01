"""Pure-Python AES-128/192/256 with CBC mode and PKCS#7 padding.

The paper encrypts traces with 192-bit AES keys (section 6).  This is the
standard table form of FIPS-197: a state column is one big-endian 32-bit
int, a round is four lookups and four XORs per column in tables derived
from the S-boxes at import, and decryption runs the equivalent inverse
cipher over its own schedule.  An :class:`AESKey` expands both schedules
once, when it is built, and CBC works on words end to end.  Virtual time
is charged from the calibrated cost model, never from the wall clock; the
speed only decides how long a secured run takes on the host.

Lookups indexed by secret bytes are a cache-timing channel.  That is
acceptable only because DESIGN.md scopes this crypto as simulation-grade.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field

from repro.errors import CryptoInputError, DecryptionError, KeyMaterialError, PaddingError

BLOCK_SIZE = 16

# --- S-boxes (FIPS-197) ------------------------------------------------------


def _build_sboxes() -> tuple[bytes, bytes]:
    """Construct the AES S-box and its inverse from GF(2^8) arithmetic."""
    # multiplicative inverse table via exp/log over generator 3
    exp = [0] * 512
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        # multiply by generator 0x03 in GF(2^8)
        x ^= (x << 1) ^ (0x1B if x & 0x80 else 0)
        x &= 0xFF
    for i in range(255, 512):
        exp[i] = exp[i - 255]

    sbox = bytearray(256)
    inv_sbox = bytearray(256)
    for value in range(256):
        inv = 0 if value == 0 else exp[255 - log[value]]
        # affine transformation
        s = inv
        result = inv
        for _ in range(4):
            s = ((s << 1) | (s >> 7)) & 0xFF
            result ^= s
        result ^= 0x63
        sbox[value] = result
        inv_sbox[result] = value
    return bytes(sbox), bytes(inv_sbox)


_SBOX, _INV_SBOX = _build_sboxes()
_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C, 0xD8, 0xAB, 0x4D)


def _xtime(a: int) -> int:
    """Multiply by x (i.e. 0x02) in GF(2^8)."""
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


# --- round tables --------------------------------------------------------------
# A state column is one big-endian 32-bit int: row 0 is the most significant
# byte.  _TE[r][x] is the column MixColumns makes of SubBytes(x) sitting in
# row r, so a round is four lookups and four XORs per column; _TD[r][x] is the
# same for InvSubBytes followed by InvMixColumns.


def _build_tables() -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Derive the encryption and decryption round tables from the S-boxes."""
    te0, td0 = [], []
    for x in range(256):
        s = _SBOX[x]
        s2 = _xtime(s)
        te0.append(s2 << 24 | s << 16 | s << 8 | (s2 ^ s))  # 02 01 01 03
        s = _INV_SBOX[x]
        s2 = _xtime(s)
        s4 = _xtime(s2)
        s8 = _xtime(s4)
        td0.append(  # 0e 09 0d 0b
            (s8 ^ s4 ^ s2) << 24 | (s8 ^ s) << 16 | (s8 ^ s4 ^ s) << 8 | (s8 ^ s2 ^ s)
        )
    # rows 1-3 are row 0 rotated right by one more byte each
    return tuple(
        tuple(tuple((w >> r | w << 32 - r) & 0xFFFFFFFF for w in row0) for r in (0, 8, 16, 24))
        for row0 in (te0, td0)
    )


_TE, _TD = _build_tables()

# --- key schedule ------------------------------------------------------------

_Schedule = tuple[tuple[int, ...], tuple[int, ...]]


def _sub_word(w: int) -> int:
    """SubWord: the S-box applied to each byte of a word."""
    sb = _SBOX
    return sb[w >> 24] << 24 | sb[w >> 16 & 255] << 16 | sb[w >> 8 & 255] << 8 | sb[w & 255]


def _expand_key(key: bytes) -> _Schedule:
    """AES key expansion: the encryption and the decryption word schedule.

    The second is that of the *equivalent inverse cipher* (FIPS-197 5.3.5):
    round keys in reverse order, InvMixColumns applied to all but the outer
    two, so decryption runs the same lookup-and-XOR round as encryption.
    """
    nk = len(key) // 4
    total = 4 * ({4: 10, 6: 12, 8: 14}[nk] + 1)
    words = list(struct.unpack(f">{nk}I", key))
    for i in range(nk, total):
        temp = words[i - 1]
        if i % nk == 0:
            temp = _sub_word((temp << 8 | temp >> 24) & 0xFFFFFFFF) ^ _RCON[i // nk - 1] << 24
        elif nk > 6 and i % nk == 4:
            temp = _sub_word(temp)
        words.append(words[i - nk] ^ temp)
    td0, td1, td2, td3 = _TD
    inverse = words[-4:]
    for r in range(total - 8, 0, -4):
        # _TD undoes a SubBytes first, so feed it S-box outputs
        inverse += [
            td0[w >> 24] ^ td1[w >> 16 & 255] ^ td2[w >> 8 & 255] ^ td3[w & 255]
            for w in map(_sub_word, words[r : r + 4])
        ]
    return tuple(words), tuple(inverse + words[:4])


# --- block operations ---------------------------------------------------------

_BLOCK = struct.Struct(">4I")
_Words = tuple[int, int, int, int]


def _encrypt_words(s0: int, s1: int, s2: int, s3: int, rk: tuple[int, ...]) -> _Words:
    """Encrypt one block given as four column words."""
    t0, t1, t2, t3 = _TE
    s0, s1, s2, s3 = s0 ^ rk[0], s1 ^ rk[1], s2 ^ rk[2], s3 ^ rk[3]
    for i in range(4, len(rk) - 4, 4):
        s0, s1, s2, s3 = (
            t0[s0 >> 24] ^ t1[s1 >> 16 & 255] ^ t2[s2 >> 8 & 255] ^ t3[s3 & 255] ^ rk[i],
            t0[s1 >> 24] ^ t1[s2 >> 16 & 255] ^ t2[s3 >> 8 & 255] ^ t3[s0 & 255] ^ rk[i + 1],
            t0[s2 >> 24] ^ t1[s3 >> 16 & 255] ^ t2[s0 >> 8 & 255] ^ t3[s1 & 255] ^ rk[i + 2],
            t0[s3 >> 24] ^ t1[s0 >> 16 & 255] ^ t2[s1 >> 8 & 255] ^ t3[s2 & 255] ^ rk[i + 3],
        )
    # final round: SubBytes + ShiftRows, no MixColumns
    b = _SBOX
    k0, k1, k2, k3 = rk[-4:]
    return (
        k0 ^ b[s0 >> 24] << 24 ^ b[s1 >> 16 & 255] << 16 ^ b[s2 >> 8 & 255] << 8 ^ b[s3 & 255],
        k1 ^ b[s1 >> 24] << 24 ^ b[s2 >> 16 & 255] << 16 ^ b[s3 >> 8 & 255] << 8 ^ b[s0 & 255],
        k2 ^ b[s2 >> 24] << 24 ^ b[s3 >> 16 & 255] << 16 ^ b[s0 >> 8 & 255] << 8 ^ b[s1 & 255],
        k3 ^ b[s3 >> 24] << 24 ^ b[s0 >> 16 & 255] << 16 ^ b[s1 >> 8 & 255] << 8 ^ b[s2 & 255],
    )


def _decrypt_words(s0: int, s1: int, s2: int, s3: int, rk: tuple[int, ...]) -> _Words:
    """Decrypt one block of column words; ``rk`` is the inverse schedule."""
    t0, t1, t2, t3 = _TD
    s0, s1, s2, s3 = s0 ^ rk[0], s1 ^ rk[1], s2 ^ rk[2], s3 ^ rk[3]
    for i in range(4, len(rk) - 4, 4):
        s0, s1, s2, s3 = (
            t0[s0 >> 24] ^ t1[s3 >> 16 & 255] ^ t2[s2 >> 8 & 255] ^ t3[s1 & 255] ^ rk[i],
            t0[s1 >> 24] ^ t1[s0 >> 16 & 255] ^ t2[s3 >> 8 & 255] ^ t3[s2 & 255] ^ rk[i + 1],
            t0[s2 >> 24] ^ t1[s1 >> 16 & 255] ^ t2[s0 >> 8 & 255] ^ t3[s3 & 255] ^ rk[i + 2],
            t0[s3 >> 24] ^ t1[s2 >> 16 & 255] ^ t2[s1 >> 8 & 255] ^ t3[s0 & 255] ^ rk[i + 3],
        )
    # final round: InvShiftRows + InvSubBytes, no InvMixColumns
    b = _INV_SBOX
    k0, k1, k2, k3 = rk[-4:]
    return (
        k0 ^ b[s0 >> 24] << 24 ^ b[s3 >> 16 & 255] << 16 ^ b[s2 >> 8 & 255] << 8 ^ b[s1 & 255],
        k1 ^ b[s1 >> 24] << 24 ^ b[s0 >> 16 & 255] << 16 ^ b[s3 >> 8 & 255] << 8 ^ b[s2 & 255],
        k2 ^ b[s2 >> 24] << 24 ^ b[s1 >> 16 & 255] << 16 ^ b[s0 >> 8 & 255] << 8 ^ b[s3 & 255],
        k3 ^ b[s3 >> 24] << 24 ^ b[s2 >> 16 & 255] << 16 ^ b[s1 >> 8 & 255] << 8 ^ b[s0 & 255],
    )


def encrypt_block(block: bytes, round_keys: _Schedule) -> bytes:
    """Encrypt one 16-byte block."""
    if len(block) != BLOCK_SIZE:
        raise CryptoInputError(f"block must be {BLOCK_SIZE} bytes")
    return _BLOCK.pack(*_encrypt_words(*_BLOCK.unpack(block), round_keys[0]))


def decrypt_block(block: bytes, round_keys: _Schedule) -> bytes:
    """Decrypt one 16-byte block."""
    if len(block) != BLOCK_SIZE:
        raise CryptoInputError(f"block must be {BLOCK_SIZE} bytes")
    return _BLOCK.pack(*_decrypt_words(*_BLOCK.unpack(block), round_keys[1]))


# --- key object, CBC mode, padding -------------------------------------------


@dataclass(frozen=True, slots=True)
class AESKey:
    """An AES key of 128, 192 (the paper's choice) or 256 bits.

    Equality and hash are on ``material`` alone, and neither it nor the
    schedule derived from it appears in the repr.
    """

    material: bytes = field(repr=False)
    _schedule: _Schedule = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.material) not in (16, 24, 32):
            raise KeyMaterialError(
                f"AES key must be 16/24/32 bytes, got {len(self.material)}"
            )
        object.__setattr__(self, "_schedule", _expand_key(self.material))

    def __repr__(self) -> str:
        return f"AESKey(bits={self.bits})"

    @property
    def bits(self) -> int:
        return len(self.material) * 8

    def round_keys(self) -> _Schedule:
        """The expanded schedule, computed once; opaque to callers."""
        return self._schedule


def generate_aes_key(rng: random.Random, bits: int = 192) -> AESKey:
    """Fresh random AES key; default 192 bits per the paper."""
    if bits not in (128, 192, 256):
        raise KeyMaterialError(f"AES key size must be 128/192/256, got {bits}")
    return AESKey(bytes(rng.randrange(256) for _ in range(bits // 8)))


def pkcs7_pad(data: bytes, block_size: int = BLOCK_SIZE) -> bytes:
    """Append PKCS#7 padding (always at least one byte)."""
    pad = block_size - (len(data) % block_size)
    return data + bytes([pad]) * pad


def pkcs7_unpad(data: bytes, block_size: int = BLOCK_SIZE) -> bytes:
    """Strip and validate PKCS#7 padding."""
    if not data or len(data) % block_size:
        raise PaddingError("padded data length not a multiple of block size")
    pad = data[-1]
    if pad < 1 or pad > block_size:
        raise PaddingError(f"invalid padding byte {pad}")
    if data[-pad:] != bytes([pad]) * pad:
        raise PaddingError("inconsistent padding bytes")
    return data[:-pad]


def aes_cbc_encrypt(key: AESKey, plaintext: bytes, rng: random.Random) -> bytes:
    """CBC-encrypt with PKCS#7 padding; the random IV is prepended."""
    rk = key.round_keys()[0]
    iv = bytes(rng.randrange(256) for _ in range(BLOCK_SIZE))
    padded = pkcs7_pad(plaintext)
    words = struct.unpack(f">{len(padded) // 4}I", padded)
    out = list(_BLOCK.unpack(iv))
    p0, p1, p2, p3 = out
    for i in range(0, len(words), 4):
        p0, p1, p2, p3 = prev = _encrypt_words(
            words[i] ^ p0, words[i + 1] ^ p1, words[i + 2] ^ p2, words[i + 3] ^ p3, rk
        )
        out += prev
    return struct.pack(f">{len(out)}I", *out)


def aes_cbc_decrypt(key: AESKey, ciphertext: bytes) -> bytes:
    """Inverse of :func:`aes_cbc_encrypt`; raises on corrupt input."""
    if len(ciphertext) < 2 * BLOCK_SIZE or len(ciphertext) % BLOCK_SIZE:
        raise DecryptionError(
            f"ciphertext length {len(ciphertext)} invalid for CBC"
        )
    rk = key.round_keys()[1]
    words = struct.unpack(f">{len(ciphertext) // 4}I", ciphertext)
    out: list[int] = []
    for i in range(4, len(words), 4):
        d0, d1, d2, d3 = _decrypt_words(words[i], words[i + 1], words[i + 2], words[i + 3], rk)
        # chain on the previous ciphertext block (the IV for the first)
        out += (d0 ^ words[i - 4], d1 ^ words[i - 3], d2 ^ words[i - 2], d3 ^ words[i - 1])
    return pkcs7_unpad(struct.pack(f">{len(out)}I", *out))
