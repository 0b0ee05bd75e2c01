"""Probabilistic prime generation for RSA key material.

Miller-Rabin with a deterministic witness set for small inputs and random
witnesses (from a caller-supplied seeded RNG) above that, so key generation
is reproducible inside a seeded simulation run.

Two error bounds, one per input:

* the full test (every drawn witness run) on an arbitrary ``n``: at most 4^-rounds
  (Rabin's worst case; 2^-80 at the default 40 rounds).
* ``generate_prime`` at 256 bits or more, where the candidate is random:
  every candidate still draws 40 witnesses, but only the first
  ``_GENERATION_ROUNDS`` = 12 are run.  Damgård, Landrock & Pomerance
  (1993), the bound FIPS 186-4 Appendix F.1 also uses, give
  p_{k,t} < k^{3/2} 2^t t^{-1/2} 4^{2-sqrt(tk)} for k >= 21, 3 <= t <= k/9:
  2^-84.6 at k = 256, t = 12, at most doubled to 2^-83.6 by the two forced
  top bits, and falling as k grows.  Below 256 bits all 40 run.
"""

from __future__ import annotations

import math
import random

from repro.errors import CryptoInputError

# Primes below 100 — used for fast trial-division rejection.
_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)

# The product of the primes 101..4093: one gcd against it rejects a drawn
# candidate with any factor in that range before the first modular pow.
_SIEVE_PRODUCT = math.prod(
    p for p in range(101, 4096, 2) if all(p % q for q in range(3, math.isqrt(p) + 1, 2))
)

# For n < 3,317,044,064,679,887,385,961,981 these witnesses make
# Miller-Rabin deterministic (Sorenson & Webster).
_DETERMINISTIC_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981

# Witnesses ``generate_prime`` draws per candidate (every committed seed was
# produced with this stream), and how many it runs on a random candidate of
# at least ``_GENERATION_MIN_BITS`` bits (module docstring: DLP, <= 2^-83.6).
_DRAWN_WITNESSES = 40
_GENERATION_ROUNDS = 12
_GENERATION_MIN_BITS = 256


def _miller_rabin_round(n: int, a: int, d: int, r: int) -> bool:
    """One MR round; True means 'probably prime' for witness ``a``."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = (x * x) % n
        if x == n - 1:
            return True
    return False


def _probable_prime(n: int, rng: random.Random | None, rounds: int, run: int) -> bool:
    """Draw ``rounds`` random witnesses (large ``n``) and run the first ``run``."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    # write n-1 = d * 2^r with d odd
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if n < _DETERMINISTIC_BOUND:
        witnesses: tuple[int, ...] | list[int] = _DETERMINISTIC_WITNESSES
    else:
        rng = rng or random.Random(n)  # deterministic: seeded by the candidate itself
        # every draw is made, so the stream does not depend on what is run
        witnesses = [rng.randrange(2, n - 1) for _ in range(rounds)][:run]
        if math.gcd(_SIEVE_PRODUCT % n, n) != 1:
            return False
    return all(_miller_rabin_round(n, a, d, r) for a in witnesses)


def generate_prime(bits: int, rng: random.Random) -> int:
    """A random probable prime of exactly ``bits`` bits.

    The top two bits are forced so that the product of two such primes has
    exactly ``2 * bits`` bits (standard RSA practice).  At 256 bits or more
    only 12 of the 40 drawn witnesses run: the Damgård-Landrock-Pomerance
    bound (1993; FIPS 186-4 Appendix F.1) keeps the chance of a composite
    at or below 2^-83.6.  Smaller sizes run all 40 (4^-40 = 2^-80).
    """
    if bits < 8:
        raise CryptoInputError(f"prime size too small: {bits} bits")
    run = _GENERATION_ROUNDS if bits >= _GENERATION_MIN_BITS else _DRAWN_WITNESSES
    while True:
        candidate = rng.getrandbits(bits)
        candidate |= (1 << (bits - 1)) | (1 << (bits - 2))  # force size
        candidate |= 1  # force odd
        if _probable_prime(candidate, rng, _DRAWN_WITNESSES, run):
            return candidate


def modinv(a: int, m: int) -> int:
    """Modular inverse of ``a`` mod ``m``; raises if not coprime."""
    try:
        return pow(a, -1, m)
    except ValueError:
        raise CryptoInputError(f"{a} has no inverse modulo {m}") from None
