"""Tests for repro.crypto.aes, anchored on the FIPS-197 known answers."""

import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import aes
from repro.crypto.aes import (
    AESKey,
    aes_cbc_decrypt,
    aes_cbc_encrypt,
    decrypt_block,
    encrypt_block,
    generate_aes_key,
    pkcs7_pad,
    pkcs7_unpad,
)
from repro.crypto.keys import SymmetricKey
from repro.errors import DecryptionError, KeyMaterialError, PaddingError

FIPS_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_VECTORS = [
    # (key hex, expected ciphertext hex) — FIPS-197 appendix C
    (
        "000102030405060708090a0b0c0d0e0f",
        "69c4e0d86a7b0430d8cdb78070b4c55a",
    ),
    (
        "000102030405060708090a0b0c0d0e0f1011121314151617",
        "dda97ca4864cdfe06eaf70a0ec0d7191",
    ),
    (
        "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
        "8ea2b7ca516745bfeafc49904b496089",
    ),
]

# NIST SP 800-38A appendix F.2.1 / F.2.3 / F.2.5 (CBC-AES128/192/256.Encrypt)
SP800_38A_IV = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
SP800_38A_PLAINTEXT = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)
SP800_38A_VECTORS = [
    # (key hex, ciphertext blocks 1-4 hex)
    (
        "2b7e151628aed2a6abf7158809cf4f3c",
        "7649abac8119b246cee98e9b12e9197d"
        "5086cb9b507219ee95db113a917678b2"
        "73bed6b8e3c1743b7116e69e22229516"
        "3ff1caa1681fac09120eca307586e1a7",
    ),
    (
        "8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b",
        "4f021db243bc633d7178183a9fa071e8"
        "b4d9ada9ad7dedf4e5e738763f69145a"
        "571b242012fb7ae07fa9baac3df102e0"
        "08b0e27988598881d920a9e64f5615cd",
    ),
    (
        "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
        "f58c4c04d6e5f1ba779eabfb5f7bfbd6"
        "9cfc4e967edb808d679f777bc6702c7d"
        "39f23369a9d9bacfa530e26304231461"
        "b2eb05e2c39be9fcda6c19078c6a9d1b",
    ),
]

# --- plain FIPS-197 reference ----------------------------------------------------
# Byte state in column-major order (state[r + 4*c] is row r, column c), one
# function per step, nothing shared with repro.crypto.aes: the oracle for the
# table-driven cipher.


def _gmul(a, b):
    """GF(2^8) multiplication (peasant algorithm)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = (a << 1) ^ (0x11B if a & 0x80 else 0)
        b >>= 1
    return result


def _ref_sboxes():
    box, p, q = [0x63] * 256, 1, 1
    for _ in range(255):
        p, q = _gmul(p, 3), _gmul(q, 0xF6)  # 0xF6 = 1/3, so q stays the inverse of p
        s = q
        for shift in range(1, 5):
            s ^= (q << shift | q >> 8 - shift) & 0xFF
        box[p] = s ^ 0x63
    return box, [box.index(v) for v in range(256)]


REF_SBOX, REF_INV_SBOX = _ref_sboxes()
REF_SHIFT = [0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11]


def _sub_bytes(state, box):
    return [box[b] for b in state]


def _shift_rows(state):
    return [state[i] for i in REF_SHIFT]


def _inv_shift_rows(state):
    return [state[REF_SHIFT.index(i)] for i in range(16)]


def _mix_columns(state, row):
    """Multiply each column by the circulant matrix whose first row is ``row``."""
    out = []
    for c in range(0, 16, 4):
        for r in range(4):
            acc = 0
            for k in range(4):
                acc ^= _gmul(state[c + k], row[(k - r) % 4])
            out.append(acc)
    return out


def _add_round_key(state, rk):
    return [a ^ b for a, b in zip(state, rk, strict=True)]


def ref_round_keys(key):
    nk, rcon = len(key) // 4, 1
    words = [list(key[4 * i : 4 * i + 4]) for i in range(nk)]
    for i in range(nk, 4 * (nk + 7)):
        temp = words[i - 1]
        if i % nk == 0:
            temp = _sub_bytes(temp[1:] + temp[:1], REF_SBOX)
            temp[0] ^= rcon
            rcon = _gmul(rcon, 2)
        elif nk > 6 and i % nk == 4:
            temp = _sub_bytes(temp, REF_SBOX)
        words.append(_add_round_key(words[i - nk], temp))
    return [sum(words[r : r + 4], []) for r in range(0, len(words), 4)]


def ref_encrypt_block(block, rks):
    state = _add_round_key(list(block), rks[0])
    for rk in rks[1:-1]:
        state = _mix_columns(_shift_rows(_sub_bytes(state, REF_SBOX)), (2, 3, 1, 1))
        state = _add_round_key(state, rk)
    return bytes(_add_round_key(_shift_rows(_sub_bytes(state, REF_SBOX)), rks[-1]))


def ref_decrypt_block(block, rks):
    state = _add_round_key(list(block), rks[-1])
    for rk in rks[-2:0:-1]:
        state = _add_round_key(_sub_bytes(_inv_shift_rows(state), REF_INV_SBOX), rk)
        state = _mix_columns(state, (14, 11, 13, 9))
    return bytes(_add_round_key(_sub_bytes(_inv_shift_rows(state), REF_INV_SBOX), rks[0]))


def ref_cbc_encrypt(key, plaintext, rng):
    rks = ref_round_keys(key)
    prev = bytes(rng.randrange(256) for _ in range(16))
    pad = 16 - len(plaintext) % 16
    padded = plaintext + bytes([pad]) * pad
    out = [prev]
    for i in range(0, len(padded), 16):
        prev = ref_encrypt_block(_add_round_key(padded[i : i + 16], prev), rks)
        out.append(prev)
    return b"".join(out)


# --- the T-table CBC decryption the block-parallel pass replaced ------------------
# The equivalent inverse cipher (FIPS-197 5.3.5), one block at a time through
# four lookup tables over its own schedule, as repro.crypto.aes decrypted
# before it ran every block at once; built here from the reference S-boxes
# and key expansion.  The oracle for aes_cbc_decrypt, exceptions included.


def _t_table_td():
    td0 = []
    for x in range(256):
        s = REF_INV_SBOX[x]
        td0.append(_gmul(s, 14) << 24 | _gmul(s, 9) << 16 | _gmul(s, 13) << 8 | _gmul(s, 11))
    # rows 1-3 are row 0 rotated right by one more byte each
    return [[(w >> r | w << 32 - r) & 0xFFFFFFFF for w in td0] for r in (0, 8, 16, 24)]


T_TABLE_TD = _t_table_td()


def _sub_word(w):
    b = REF_SBOX
    return b[w >> 24] << 24 | b[w >> 16 & 255] << 16 | b[w >> 8 & 255] << 8 | b[w & 255]


def t_table_inverse_schedule(material):
    rks = ref_round_keys(material)
    words = struct.unpack(f">{4 * len(rks)}I", bytes(sum(rks, [])))
    td0, td1, td2, td3 = T_TABLE_TD
    inverse = list(words[-4:])
    for r in range(len(words) - 8, 0, -4):
        # the tables undo a SubBytes first, so feed them S-box outputs
        inverse += [
            td0[w >> 24] ^ td1[w >> 16 & 255] ^ td2[w >> 8 & 255] ^ td3[w & 255]
            for w in map(_sub_word, words[r : r + 4])
        ]
    return tuple(inverse + list(words[:4]))


def t_table_decrypt_words(s0, s1, s2, s3, rk):
    t0, t1, t2, t3 = T_TABLE_TD
    s0, s1, s2, s3 = s0 ^ rk[0], s1 ^ rk[1], s2 ^ rk[2], s3 ^ rk[3]
    for i in range(4, len(rk) - 4, 4):
        s0, s1, s2, s3 = (
            t0[s0 >> 24] ^ t1[s3 >> 16 & 255] ^ t2[s2 >> 8 & 255] ^ t3[s1 & 255] ^ rk[i],
            t0[s1 >> 24] ^ t1[s0 >> 16 & 255] ^ t2[s3 >> 8 & 255] ^ t3[s2 & 255] ^ rk[i + 1],
            t0[s2 >> 24] ^ t1[s1 >> 16 & 255] ^ t2[s0 >> 8 & 255] ^ t3[s3 & 255] ^ rk[i + 2],
            t0[s3 >> 24] ^ t1[s2 >> 16 & 255] ^ t2[s1 >> 8 & 255] ^ t3[s0 & 255] ^ rk[i + 3],
        )
    # final round: InvShiftRows + InvSubBytes, no InvMixColumns
    b = REF_INV_SBOX
    k0, k1, k2, k3 = rk[-4:]
    return (
        k0 ^ b[s0 >> 24] << 24 ^ b[s3 >> 16 & 255] << 16 ^ b[s2 >> 8 & 255] << 8 ^ b[s1 & 255],
        k1 ^ b[s1 >> 24] << 24 ^ b[s0 >> 16 & 255] << 16 ^ b[s3 >> 8 & 255] << 8 ^ b[s2 & 255],
        k2 ^ b[s2 >> 24] << 24 ^ b[s1 >> 16 & 255] << 16 ^ b[s0 >> 8 & 255] << 8 ^ b[s3 & 255],
        k3 ^ b[s3 >> 24] << 24 ^ b[s2 >> 16 & 255] << 16 ^ b[s1 >> 8 & 255] << 8 ^ b[s0 & 255],
    )


def t_table_cbc_decrypt(material, ciphertext):
    if len(ciphertext) < 32 or len(ciphertext) % 16:
        raise DecryptionError(f"ciphertext length {len(ciphertext)} invalid for CBC")
    rk = t_table_inverse_schedule(material)
    words = struct.unpack(f">{len(ciphertext) // 4}I", ciphertext)
    out = []
    for i in range(4, len(words), 4):
        d0, d1, d2, d3 = t_table_decrypt_words(*words[i : i + 4], rk)
        # chain on the previous ciphertext block (the IV for the first)
        out += (d0 ^ words[i - 4], d1 ^ words[i - 3], d2 ^ words[i - 2], d3 ^ words[i - 1])
    return pkcs7_unpad(struct.pack(f">{len(out)}I", *out))


key_material = st.sampled_from([16, 24, 32]).flatmap(
    lambda size: st.binary(min_size=size, max_size=size)
)


class _FixedIV:
    """Stands in for ``random.Random``: ``randrange`` yields the IV bytes in order."""

    def __init__(self, iv):
        self._bytes = iter(iv)

    def randrange(self, stop):
        assert stop == 256
        return next(self._bytes)


class TestKnownAnswers:
    @pytest.mark.parametrize("key_hex,ct_hex", FIPS_VECTORS)
    def test_fips197_encrypt(self, key_hex, ct_hex):
        key = AESKey(bytes.fromhex(key_hex))
        assert encrypt_block(FIPS_PLAINTEXT, key.round_keys()).hex() == ct_hex

    @pytest.mark.parametrize("key_hex,ct_hex", FIPS_VECTORS)
    def test_fips197_decrypt(self, key_hex, ct_hex):
        key = AESKey(bytes.fromhex(key_hex))
        assert (
            decrypt_block(bytes.fromhex(ct_hex), key.round_keys()) == FIPS_PLAINTEXT
        )

    @pytest.mark.parametrize(
        "key_hex,blocks_hex", SP800_38A_VECTORS, ids=["aes128", "aes192", "aes256"]
    )
    def test_sp800_38a_cbc(self, key_hex, blocks_hex):
        key = AESKey(bytes.fromhex(key_hex))
        ciphertext = aes_cbc_encrypt(key, SP800_38A_PLAINTEXT, _FixedIV(SP800_38A_IV))
        # IV, the four vector blocks, then one block of PKCS#7 padding
        assert len(ciphertext) == 96
        assert ciphertext[:80] == SP800_38A_IV + bytes.fromhex(blocks_hex)
        assert aes_cbc_decrypt(key, ciphertext) == SP800_38A_PLAINTEXT


class TestAgainstReference:
    def test_reference_meets_fips197(self):
        for key_hex, ct_hex in FIPS_VECTORS:
            rks = ref_round_keys(bytes.fromhex(key_hex))
            assert ref_encrypt_block(FIPS_PLAINTEXT, rks).hex() == ct_hex
            assert ref_decrypt_block(bytes.fromhex(ct_hex), rks) == FIPS_PLAINTEXT

    def test_t_table_oracle_meets_sp800_38a(self):
        # the vectors' blocks plus the padding block test_sp800_38a_cbc pins
        for key_hex, _ in SP800_38A_VECTORS:
            material = bytes.fromhex(key_hex)
            iv = _FixedIV(SP800_38A_IV)
            ciphertext = aes_cbc_encrypt(AESKey(material), SP800_38A_PLAINTEXT, iv)
            assert t_table_cbc_decrypt(material, ciphertext) == SP800_38A_PLAINTEXT

    @given(key_material, st.binary(min_size=16, max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_blocks_equal_the_reference(self, material, block):
        rks = ref_round_keys(material)
        schedule = AESKey(material).round_keys()
        assert encrypt_block(block, schedule) == ref_encrypt_block(block, rks)
        assert decrypt_block(block, schedule) == ref_decrypt_block(block, rks)

    @given(key_material, st.binary(max_size=300), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_cbc_equals_the_reference_and_draws_the_same_iv(self, material, plaintext, seed):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        ciphertext = aes_cbc_encrypt(AESKey(material), plaintext, rng)
        assert ciphertext == ref_cbc_encrypt(material, plaintext, ref_rng)
        # same draws in the same order: every committed seed depends on it
        assert rng.random() == ref_rng.random()
        assert aes_cbc_decrypt(AESKey(material), ciphertext) == plaintext


def decrypted(decrypt, key, ciphertext):
    """The plaintext, or the type and message of the error decryption raised."""
    try:
        return decrypt(key, ciphertext)
    except DecryptionError as exc:
        return type(exc), str(exc)


def _decrypt_equals_the_t_tables(examples):
    @settings(max_examples=examples, deadline=None)
    @given(
        key_material,
        st.integers(min_value=0, max_value=3000),
        st.integers(min_value=0, max_value=2**32),
        st.sampled_from(["intact", "tampered", "truncated", "wrong key"]),
        st.data(),
    )
    def test(material, length, seed, damage, data):
        rng = random.Random(seed)
        ciphertext = aes_cbc_encrypt(AESKey(material), rng.randbytes(length), rng)
        if damage == "tampered":
            at = data.draw(st.integers(min_value=0, max_value=len(ciphertext) - 1))
            flip = data.draw(st.integers(min_value=1, max_value=255))
            ciphertext = ciphertext[:at] + bytes([ciphertext[at] ^ flip]) + ciphertext[at + 1 :]
        elif damage == "truncated":
            ciphertext = ciphertext[: data.draw(st.integers(0, len(ciphertext) - 1))]
        elif damage == "wrong key":
            material = data.draw(key_material.filter(lambda other: other != material))
        assert decrypted(aes_cbc_decrypt, AESKey(material), ciphertext) == decrypted(
            t_table_cbc_decrypt, material, ciphertext
        )

    return test


test_block_parallel_decrypt_equals_the_t_tables = _decrypt_equals_the_t_tables(60)
#: the deep budget (``-m deep``; CI's "Deep example budgets" step)
test_block_parallel_decrypt_equals_the_t_tables_deep = pytest.mark.deep(
    _decrypt_equals_the_t_tables(2_000)
)


class TestAESKey:
    @pytest.mark.parametrize("bits", [128, 192, 256])
    def test_valid_sizes(self, bits, rng):
        key = generate_aes_key(rng, bits)
        assert key.bits == bits

    def test_default_is_192_per_paper(self, rng):
        assert generate_aes_key(rng).bits == 192

    def test_rejects_bad_sizes(self, rng):
        with pytest.raises(KeyMaterialError):
            AESKey(b"short")
        with pytest.raises(KeyMaterialError):
            generate_aes_key(rng, 64)

    def test_block_functions_reject_bad_length(self, rng):
        key = generate_aes_key(rng, 128)
        with pytest.raises(ValueError):
            encrypt_block(b"tooshort", key.round_keys())
        with pytest.raises(ValueError):
            decrypt_block(b"x" * 17, key.round_keys())

    def test_repr_shows_bits_and_no_secret(self, rng):
        key = generate_aes_key(rng)
        secrets = [repr(key.material)[2:-1], key.material.hex()]
        secrets += [text for word in key.round_keys() for text in (str(word), f"{word:x}")]
        for shown in (repr(key), repr(SymmetricKey(key))):
            assert "AESKey(bits=192)" in shown
            assert not [secret for secret in secrets if secret in shown]

    def test_equality_and_hash_are_on_material_alone(self, rng):
        key = generate_aes_key(rng)
        twin = AESKey(bytes(bytearray(key.material)))
        assert key == twin and hash(key) == hash(twin)
        assert key != generate_aes_key(rng)
        assert SymmetricKey(key) == SymmetricKey(twin)

    def test_schedule_is_expanded_once_per_key(self, rng, monkeypatch):
        expansions = []
        expand_key = aes._expand_key

        def counting(material):
            expansions.append(material)
            return expand_key(material)

        monkeypatch.setattr(aes, "_expand_key", counting)
        key = generate_aes_key(rng)
        assert len(expansions) == 1
        ciphertexts = [aes_cbc_encrypt(key, b"a trace", rng) for _ in range(50)]
        assert all(aes_cbc_decrypt(key, c) == b"a trace" for c in ciphertexts)
        assert len(expansions) == 1
        # one schedule, the encryption words, serves both directions
        schedule = key.round_keys()
        assert schedule is key.round_keys()
        assert len(schedule) == 4 * (12 + 1) and all(0 <= w < 2**32 for w in schedule)


class TestPKCS7:
    def test_pad_always_adds(self):
        assert pkcs7_pad(b"") == b"\x10" * 16
        assert pkcs7_pad(b"x" * 16)[-1] == 16
        assert len(pkcs7_pad(b"x" * 16)) == 32

    def test_roundtrip(self):
        for length in range(0, 33):
            data = bytes(range(length % 256))[:length]
            assert pkcs7_unpad(pkcs7_pad(data)) == data

    def test_rejects_bad_padding(self):
        with pytest.raises(PaddingError):
            pkcs7_unpad(b"x" * 15 + b"\x00")
        with pytest.raises(PaddingError):
            pkcs7_unpad(b"x" * 15 + b"\x11")
        with pytest.raises(PaddingError):
            pkcs7_unpad(b"x" * 14 + b"\x03\x02")
        with pytest.raises(PaddingError):
            pkcs7_unpad(b"x" * 15)  # not a block multiple
        with pytest.raises(PaddingError):
            pkcs7_unpad(b"")


class TestCBC:
    def test_roundtrip(self, rng):
        key = generate_aes_key(rng)
        for plaintext in (b"", b"short", b"x" * 16, b"y" * 1000):
            ciphertext = aes_cbc_encrypt(key, plaintext, rng)
            assert aes_cbc_decrypt(key, ciphertext) == plaintext

    def test_iv_randomizes_ciphertext(self, rng):
        key = generate_aes_key(rng)
        a = aes_cbc_encrypt(key, b"same message", rng)
        b = aes_cbc_encrypt(key, b"same message", rng)
        assert a != b

    def test_wrong_key_fails(self, rng):
        key_a = generate_aes_key(rng)
        key_b = generate_aes_key(rng)
        ciphertext = aes_cbc_encrypt(key_a, b"secret", rng)
        with pytest.raises(DecryptionError):
            aes_cbc_decrypt(key_b, ciphertext)

    def test_corrupt_ciphertext_fails(self, rng):
        key = generate_aes_key(rng)
        ciphertext = bytearray(aes_cbc_encrypt(key, b"secret data", rng))
        ciphertext[-1] ^= 0x01
        with pytest.raises(DecryptionError):
            aes_cbc_decrypt(key, bytes(ciphertext))

    def test_truncated_ciphertext_fails(self, rng):
        key = generate_aes_key(rng)
        ciphertext = aes_cbc_encrypt(key, b"secret", rng)
        with pytest.raises(DecryptionError):
            aes_cbc_decrypt(key, ciphertext[:16])
        with pytest.raises(DecryptionError):
            aes_cbc_decrypt(key, ciphertext[:-1])

    @given(st.binary(max_size=256), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, plaintext, seed):
        rng = random.Random(seed)
        key = generate_aes_key(rng, 192)
        assert aes_cbc_decrypt(key, aes_cbc_encrypt(key, plaintext, rng)) == plaintext
