"""Tests for repro.crypto.primes."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import primes
from repro.crypto.primes import generate_prime, modinv
from repro.crypto.rsa import generate_rsa_keypair


def is_probable_prime(n: int, rng: random.Random | None = None, rounds: int = 40) -> bool:
    """Miller-Rabin with every one of ``rounds`` drawn witnesses run: deterministic
    for n below ~3.3e24, error at most 4^-rounds above."""
    return primes._probable_prime(n, rng, rounds, rounds)


KNOWN_PRIMES = [2, 3, 5, 7, 97, 101, 7919, 104729, 2**31 - 1]
KNOWN_COMPOSITES = [0, 1, 4, 9, 100, 7917, 2**31, 561, 41041, 825265]  # incl. Carmichael


class TestMillerRabin:
    @pytest.mark.parametrize("p", KNOWN_PRIMES)
    def test_known_primes(self, p):
        assert is_probable_prime(p)

    @pytest.mark.parametrize("n", KNOWN_COMPOSITES)
    def test_known_composites(self, n):
        assert not is_probable_prime(n)

    def test_negative_numbers(self):
        assert not is_probable_prime(-7)

    def test_large_prime(self):
        # 2^127 - 1 is a Mersenne prime
        assert is_probable_prime(2**127 - 1, random.Random(0))

    def test_large_composite(self):
        assert not is_probable_prime((2**61 - 1) * (2**31 - 1), random.Random(0))

    @given(st.integers(min_value=2, max_value=10_000))
    @settings(max_examples=200)
    def test_agrees_with_trial_division(self, n):
        by_trial = all(n % d for d in range(2, int(n**0.5) + 1)) and n >= 2
        assert is_probable_prime(n) == by_trial


class TestGeneratePrime:
    @pytest.mark.parametrize("bits", [16, 32, 64, 128])
    def test_exact_bit_length(self, bits):
        rng = random.Random(42)
        p = generate_prime(bits, rng)
        assert p.bit_length() == bits
        assert is_probable_prime(p)

    def test_top_two_bits_set(self):
        p = generate_prime(64, random.Random(1))
        assert p >> 62 == 0b11

    def test_deterministic(self):
        assert generate_prime(32, random.Random(7)) == generate_prime(
            32, random.Random(7)
        )

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            generate_prime(4, random.Random(0))


def reference_generate_prime(bits, rng):
    """The 40-round generator before the sieve and the 12-round cut."""
    small = [p for p in range(2, 100) if all(p % q for q in range(2, p))]
    while True:
        n = rng.getrandbits(bits) | (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        if any(n % p == 0 for p in small):
            continue
        d, r = n - 1, 0
        while d % 2 == 0:
            d, r = d // 2, r + 1
        if n < 3_317_044_064_679_887_385_961_981:
            witnesses = small[:12]
        else:
            witnesses = [rng.randrange(2, n - 1) for _ in range(40)]
        if all(
            pow(a, d, n) == 1 or any(pow(a, d << i, n) == n - 1 for i in range(r))
            for a in witnesses
        ):
            return n


def assert_matches_reference(bits, seeds):
    for seed in seeds:
        ours, ref = random.Random(seed), random.Random(seed)
        assert generate_prime(bits, ours) == reference_generate_prime(bits, ref), seed
        assert ours.getstate() == ref.getstate(), seed


class TestGenerationOracle:
    # the sieve and the 12-round cut change neither the prime nor the stream

    @pytest.mark.parametrize("bits", [64, 128, 256])
    def test_same_prime_and_stream_as_reference(self, bits):
        assert_matches_reference(bits, range(20))

    @pytest.mark.deep
    @pytest.mark.parametrize("bits", [64, 128, 256])
    def test_same_prime_and_stream_as_reference_deep(self, bits):
        assert_matches_reference(bits, range(500))

    def test_keypair_runs_few_miller_rabin_rounds(self, monkeypatch):
        # the 40-round generator ran 106 rounds for this pair (43 now)
        calls = 0
        real = primes._miller_rabin_round

        def counting(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(primes, "_miller_rabin_round", counting)
        generate_rsa_keypair(random.Random(42))
        assert calls <= 45

    def test_generation_bound_holds_at_256_bits(self):
        # Damgard-Landrock-Pomerance (1993): p_{k,t} < k^{3/2} 2^t t^{-1/2} 4^{2-sqrt(tk)},
        # for k >= 21 and 3 <= t <= k/9; the two forced top bits at most double it
        k, t = primes._GENERATION_MIN_BITS, primes._GENERATION_ROUNDS
        assert k >= 21 and 3 <= t <= k / 9
        log2_bound = 1.5 * math.log2(k) + t - 0.5 * math.log2(t) + 2 * (2 - math.sqrt(t * k))
        assert log2_bound + 1 <= -80
        assert round(log2_bound + 1, 1) == -83.6


class TestModularArithmetic:
    def test_modinv(self):
        assert (3 * modinv(3, 11)) % 11 == 1
        assert (65537 * modinv(65537, 7919 * 104729)) % (7919 * 104729) \
            == 65537 * modinv(65537, 7919 * 104729) % (7919 * 104729)

    def test_modinv_raises_when_not_coprime(self):
        with pytest.raises(ValueError):
            modinv(6, 9)

    # also covers the removed test_egcd_identity and test_egcd_property:
    # modinv is pow(a, -1, m) and the extended-Euclid helper is gone
    @given(st.integers(min_value=2, max_value=10**6))
    def test_modinv_property(self, m):
        a = 65537
        from math import gcd

        if gcd(a, m) == 1:
            assert (a * modinv(a, m)) % m == 1
