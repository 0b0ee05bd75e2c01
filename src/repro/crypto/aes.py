"""Pure-Python AES-128/192/256 with CBC mode and PKCS#7 padding.

The paper encrypts traces with 192-bit AES keys (section 6).  Encryption
is the standard table form of FIPS-197: a state column is one big-endian
32-bit int and a round is four lookups and four XORs per column in tables
derived from the S-box at import, one block after the other, since each
CBC block chains on the ciphertext of the one before.  Decryption needs
only the ciphertext, so it runs the inverse cipher (FIPS-197 5.3) on every
block of a message at once: the blocks are one big-endian int, InvSubBytes
is one ``bytes.translate``, and InvShiftRows, InvMixColumns, AddRoundKey
and the CBC chaining are shifts, XORs and byte-wise multiplications by x
under lane masks repeated once per block.  An :class:`AESKey` expands its
one word schedule once, when it is built.  Virtual time is charged from
the calibrated cost model, never from the wall clock; the speed only
decides how long a secured run takes on the host.

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
# row r, so an encryption round is four lookups and four XORs per column.


def _build_tables() -> tuple[tuple[int, ...], ...]:
    """Derive the encryption round tables from the S-box."""
    te0 = []
    for x in range(256):
        s = _SBOX[x]
        s2 = _xtime(s)
        te0.append(s2 << 24 | s << 16 | s << 8 | (s2 ^ s))  # 02 01 01 03
    # rows 1-3 are row 0 rotated right by one more byte each
    return tuple(
        tuple((w >> r | w << 32 - r) & 0xFFFFFFFF for w in te0) for r in (0, 8, 16, 24)
    )


_TE = _build_tables()

# --- key schedule ------------------------------------------------------------


def _sub_word(w: int) -> int:
    """SubWord: the S-box applied to each byte of a word."""
    sb = _SBOX
    return sb[w >> 24] << 24 | sb[w >> 16 & 255] << 16 | sb[w >> 8 & 255] << 8 | sb[w & 255]


def _expand_key(key: bytes) -> tuple[int, ...]:
    """AES key expansion (FIPS-197 5.2): the round keys as column words."""
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
    return tuple(words)


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


# Decryption works on every block of a message at once: the blocks are one
# big-endian int, and a lane mask is its one-block pattern below times ``rep``,
# the int with a 1 in the lowest bit of each block.  Column c of a block is
# the word 32 * (3 - c) bits up from the block's lowest bit.

_COLUMN_LANES = 0x00000001_00000001_00000001_00000001  # a 1 in each column
_BYTE_LANES = 0x01010101 * _COLUMN_LANES  # a 1 in each byte


def _row_lanes(row: int, columns: range) -> int:
    """The one-block pattern of ``row`` in ``columns``."""
    return sum(0xFF << 8 * (3 - row) + 32 * (3 - c) for c in columns)


# InvShiftRows moves row r right by r columns: a byte in a column below 4 - r
# moves 32 * r bits down, the rest wrap 128 - 32 * r bits up to the front of
# their block.  Row 0 stays; rows 1-3 follow as (moves down, wraps) pairs.
_SHIFT_LANES = (_row_lanes(0, range(4)),) + tuple(
    lanes
    for r in (1, 2, 3)
    for lanes in (_row_lanes(r, range(4 - r)), _row_lanes(r, range(4 - r, 4)))
)


def _decrypt_blocks(x: int, size: int, rk: tuple[int, ...]) -> int:
    """The inverse cipher (FIPS-197 5.3) on each block of the ``size``-byte ``x``."""
    rep = ((1 << 8 * size) - 1) // ((1 << 128) - 1)
    row0, a1, b1, a2, b2, a3, b3 = (lanes * rep for lanes in _SHIFT_LANES)
    low7, low1 = 0x7F * _BYTE_LANES * rep, _BYTE_LANES * rep
    w8, w16, w24 = (mask * _COLUMN_LANES * rep for mask in (0xFF, 0xFFFF, 0xFFFFFF))
    # the round keys, last first, each repeated once per block
    keys = [
        (rk[i] << 96 | rk[i + 1] << 64 | rk[i + 2] << 32 | rk[i + 3]) * rep
        for i in range(len(rk) - 4, -1, -4)
    ]
    x ^= keys[0]
    last = len(keys) - 1
    for i in range(1, last + 1):
        # InvShiftRows, InvSubBytes, AddRoundKey; no InvMixColumns after the last
        x = (
            x & row0 | (x & a1) >> 32 | (x & b1) << 96 | (x & a2) >> 64
            | (x & b2) << 64 | (x & a3) >> 96 | (x & b3) << 32
        )
        x = int.from_bytes(x.to_bytes(size, "big").translate(_INV_SBOX), "big") ^ keys[i]
        if i == last:
            return x
        # InvMixColumns: times 2, 4 and 8 by byte-wise xtime, then each output
        # byte is 0e.a0 ^ 0b.a1 ^ 0d.a2 ^ 09.a3 of its column, rotated into place
        x2 = (x & low7) << 1 ^ (x >> 7 & low1) * 0x1B
        x4 = (x2 & low7) << 1 ^ (x2 >> 7 & low1) * 0x1B
        x8 = (x4 & low7) << 1 ^ (x4 >> 7 & low1) * 0x1B
        x9, x11, x13 = x8 ^ x, x8 ^ x2 ^ x, x8 ^ x4 ^ x
        x = (
            x8 ^ x4 ^ x2
            ^ ((x11 & w24) << 8 | x11 >> 24 & w8)
            ^ ((x13 & w16) << 16 | x13 >> 16 & w16)
            ^ ((x9 & w8) << 24 | x9 >> 8 & w24)
        )
    return x


def encrypt_block(block: bytes, round_keys: tuple[int, ...]) -> bytes:
    """Encrypt one 16-byte block."""
    if len(block) != BLOCK_SIZE:
        raise CryptoInputError(f"block must be {BLOCK_SIZE} bytes")
    return _BLOCK.pack(*_encrypt_words(*_BLOCK.unpack(block), round_keys))


def decrypt_block(block: bytes, round_keys: tuple[int, ...]) -> bytes:
    """Decrypt one 16-byte block."""
    if len(block) != BLOCK_SIZE:
        raise CryptoInputError(f"block must be {BLOCK_SIZE} bytes")
    x = _decrypt_blocks(int.from_bytes(block, "big"), BLOCK_SIZE, round_keys)
    return x.to_bytes(BLOCK_SIZE, "big")


# --- key object, CBC mode, padding -------------------------------------------


@dataclass(frozen=True, slots=True)
class AESKey:
    """An AES key of 128, 192 (the paper's choice) or 256 bits.

    Equality and hash are on ``material`` alone, and neither it nor the
    schedule derived from it appears in the repr.
    """

    material: bytes = field(repr=False)
    _schedule: tuple[int, ...] = field(init=False, repr=False, compare=False)

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

    def round_keys(self) -> tuple[int, ...]:
        """The expanded schedule, computed once; opaque to callers."""
        return self._schedule


def generate_aes_key(rng: random.Random, bits: int = 192) -> AESKey:
    """Fresh random AES key; default 192 bits per the paper."""
    if bits not in (128, 192, 256):
        raise KeyMaterialError(f"AES key size must be 128/192/256, got {bits}")
    return AESKey(bytes(rng.randrange(256) for _ in range(bits // 8)))


def pkcs7_pad(data: bytes) -> bytes:
    """Append PKCS#7 padding to a whole block (always at least one byte)."""
    pad = BLOCK_SIZE - (len(data) % BLOCK_SIZE)
    return data + bytes([pad]) * pad


def pkcs7_unpad(data: bytes) -> bytes:
    """Strip and validate PKCS#7 padding."""
    if not data or len(data) % BLOCK_SIZE:
        raise PaddingError("padded data length not a multiple of block size")
    pad = data[-1]
    if pad < 1 or pad > BLOCK_SIZE:
        raise PaddingError(f"invalid padding byte {pad}")
    if data[-pad:] != bytes([pad]) * pad:
        raise PaddingError("inconsistent padding bytes")
    return data[:-pad]


def aes_cbc_encrypt(key: AESKey, plaintext: bytes, rng: random.Random) -> bytes:
    """CBC-encrypt with PKCS#7 padding; the random IV is prepended."""
    rk = key.round_keys()
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
    # block i decrypts to plaintext block i XOR ciphertext block i - 1 (the
    # IV for the first), so the whole body is one pass and one XOR
    body = len(ciphertext) - BLOCK_SIZE
    x = _decrypt_blocks(int.from_bytes(ciphertext[BLOCK_SIZE:], "big"), body, key.round_keys())
    x ^= int.from_bytes(ciphertext[:body], "big")
    return pkcs7_unpad(x.to_bytes(body, "big"))
