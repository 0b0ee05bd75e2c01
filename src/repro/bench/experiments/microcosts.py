"""EXP-T3-micro: per-operation security costs.

Two complementary measurements:

* **Calibrated virtual costs** — what the simulator charges (sampled from
  the cost model), reported against the paper's Table 3 micro rows.
  These agree by construction; the table verifies the calibration wiring.
* **Actual pure-Python costs** — wall-clock times of our real RSA/AES
  primitives, reported for transparency (they do *not* match 2003 Java
  on Xeons, nor do they need to: virtual time is what the macro
  benchmarks consume).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.bench import paper_data
from repro.bench.tables import ComparisonRow
from repro.crypto.aes import generate_aes_key
from repro.crypto.costmodel import CryptoCostModel, CryptoOp
from repro.crypto.keys import SymmetricKey
from repro.crypto.rsa import generate_rsa_keypair
from repro.obs import MetricsRegistry
from repro.util.stats import StatSummary, summarize

#: Mapping of Table 3 micro rows to cost-model operations.
MICRO_ROWS: list[tuple[str, CryptoOp]] = [
    ("Token Generation and Signing", CryptoOp.TOKEN_GENERATE_AND_SIGN),
    ("Verifying Authorization Token", CryptoOp.TOKEN_VERIFY),
    ("Encrypting Trace Message", CryptoOp.TRACE_ENCRYPT),
    ("Decrypting Trace Message", CryptoOp.TRACE_DECRYPT),
    ("Sign Trace Message", CryptoOp.TRACE_SIGN),
    ("Verify Signature in Trace Message", CryptoOp.TRACE_VERIFY),
    ("Sign Encrypted Trace Message", CryptoOp.TRACE_SIGN_ENCRYPTED),
    ("Verify Signature in Encrypted Trace Message", CryptoOp.TRACE_VERIFY_ENCRYPTED),
]


@dataclass(frozen=True, slots=True)
class MicroResult:
    """Table 3 micro-benchmark: one calibrated crypto operation cost."""

    label: str
    op: CryptoOp
    calibrated: StatSummary


def run_calibrated_micro(samples: int = 500, seed: int = 3) -> list[MicroResult]:
    """Sample every Table 3 micro operation from the calibrated model.

    The samples flow through a metrics-bound model into ``crypto.ms.*``
    histograms; the reported statistics are read back from the registry.
    """
    registry = MetricsRegistry()
    model = CryptoCostModel(seed=seed, metrics=registry)
    results = []
    for label, op in MICRO_ROWS:
        for _ in range(samples):
            model.sample_ms(op)
        results.append(
            MicroResult(
                label=label,
                op=op,
                calibrated=registry.histogram(f"crypto.ms.{op.value}").summary(),
            )
        )
    return results


def comparison_rows(results: list[MicroResult]) -> list[ComparisonRow]:
    """Paper-vs-calibrated rows of the Table 3 micro block."""
    return [
        ComparisonRow(r.label, *paper_data.TABLE3_MICRO[r.label], measured=r.calibrated)
        for r in results
    ]


def measure_real_primitives(iterations: int = 20, seed: int = 4) -> dict[str, StatSummary]:
    """Wall-clock costs of the actual pure-Python primitives (ms)."""
    rng = random.Random(seed)
    keypair = generate_rsa_keypair(rng)
    sym = SymmetricKey(generate_aes_key(rng, 192))
    message = bytes(rng.randrange(256) for _ in range(512))

    def timed(fn) -> list[float]:
        times = []
        for _ in range(iterations):
            # This helper exists to measure *real* host time: the calibration
            # source the virtual cost model is fitted against.
            start = time.perf_counter()  # repro: noqa[DET01]
            fn()
            times.append((time.perf_counter() - start) * 1000.0)  # repro: noqa[DET01]
        return times

    signature = keypair.private.sign(message)
    ciphertext = sym.encrypt(message, rng)
    results = {
        "rsa_sign": summarize(timed(lambda: keypair.private.sign(message))),
        "rsa_verify": summarize(
            timed(lambda: keypair.public.verify(message, signature))
        ),
        "aes_encrypt": summarize(timed(lambda: sym.encrypt(message, rng))),
        "aes_decrypt": summarize(timed(lambda: sym.decrypt(ciphertext))),
    }
    return results
