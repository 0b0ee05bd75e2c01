"""Calibrated virtual-time costs of cryptographic operations.

The paper's Table 3 includes a micro-benchmark of every security operation
(1024-bit RSA + SHA-1 + 192-bit AES under BouncyCastle 1.3 on 2.4 GHz
Xeons).  Inside the simulator, the *functional* crypto is executed with our
pure-Python primitives, but the *time charged to the virtual clock* comes
from this model so that reproduced latencies have the paper's shape rather
than the shape of whatever machine runs the simulation.

Each operation is modeled as a Gaussian ``N(mean, std)`` truncated below at
``floor_ms``, sampled from a seeded RNG stream.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.obs import MetricsRegistry


class CryptoOp(enum.Enum):
    """Every cryptographic operation the protocol charges time for."""

    # Rows taken directly from Table 3 of the paper.
    TOKEN_GENERATE_AND_SIGN = "token_generate_and_sign"
    TOKEN_VERIFY = "token_verify"
    TRACE_ENCRYPT = "trace_encrypt"
    TRACE_DECRYPT = "trace_decrypt"
    TRACE_SIGN = "trace_sign"
    TRACE_VERIFY = "trace_verify"
    TRACE_SIGN_ENCRYPTED = "trace_sign_encrypted"
    TRACE_VERIFY_ENCRYPTED = "trace_verify_encrypted"
    # Derived operations the protocol also performs (values estimated to be
    # consistent with the Table 3 rows: RSA private-key ops dominate).
    RSA_KEYGEN = "rsa_keygen"
    RSA_ENCRYPT = "rsa_encrypt"
    RSA_DECRYPT = "rsa_decrypt"
    SEAL_PAYLOAD = "seal_payload"
    OPEN_SEALED = "open_sealed"
    CERT_VERIFY = "cert_verify"
    SYM_KEYGEN = "sym_keygen"
    MAC_COMPUTE = "mac_compute"
    MAC_VERIFY = "mac_verify"
    # End-to-end securing of one trace (cipher init, encrypt/decrypt, and
    # encoding overhead of the 2003 JCE stack).  Calibrated so that the
    # auth+security minus auth-only gap reproduces Table 3's ~17.6 ms; the
    # paper's own micro rows (0.25 ms encrypt / 1.15 ms decrypt) likewise do
    # not add up to its macro gap, so the wrap constants carry the
    # unattributed per-message security overhead observed in its testbed.
    SECURE_WRAP = "secure_wrap"
    SECURE_UNWRAP = "secure_unwrap"


@dataclass(frozen=True, slots=True)
class OpCost:
    """Gaussian cost of one operation, in milliseconds."""

    mean_ms: float
    std_ms: float
    floor_ms: float = 0.01

    def __post_init__(self) -> None:
        if self.mean_ms < 0 or self.std_ms < 0 or self.floor_ms < 0:
            raise ConfigurationError("cost parameters must be non-negative")


#: Calibration lifted from Table 3 (mean, std dev) plus consistent estimates
#: for the derived operations.  All values in milliseconds.
PAPER_CALIBRATION: Mapping[CryptoOp, OpCost] = {
    CryptoOp.TOKEN_GENERATE_AND_SIGN: OpCost(27.19, 2.99),
    CryptoOp.TOKEN_VERIFY: OpCost(2.01, 1.04),
    CryptoOp.TRACE_ENCRYPT: OpCost(0.25, 0.20),
    CryptoOp.TRACE_DECRYPT: OpCost(1.15, 0.68),
    CryptoOp.TRACE_SIGN: OpCost(24.51, 1.81),
    CryptoOp.TRACE_VERIFY: OpCost(6.83, 1.81),
    CryptoOp.TRACE_SIGN_ENCRYPTED: OpCost(24.0, 1.37),
    CryptoOp.TRACE_VERIFY_ENCRYPTED: OpCost(5.31, 1.09),
    # Derived: an RSA private-key operation is what makes signing ~24.5 ms;
    # public-key operations (e = 65537) are roughly an order cheaper.
    CryptoOp.RSA_KEYGEN: OpCost(55.0, 18.0),
    CryptoOp.RSA_ENCRYPT: OpCost(1.6, 0.4),
    CryptoOp.RSA_DECRYPT: OpCost(20.5, 2.0),
    CryptoOp.SEAL_PAYLOAD: OpCost(2.4, 0.6),     # AES keygen + encrypt + RSA public op
    CryptoOp.OPEN_SEALED: OpCost(21.6, 2.1),     # RSA private op + AES decrypt
    CryptoOp.CERT_VERIFY: OpCost(2.2, 0.9),
    CryptoOp.SYM_KEYGEN: OpCost(0.4, 0.1),
    CryptoOp.MAC_COMPUTE: OpCost(0.12, 0.05),
    CryptoOp.MAC_VERIFY: OpCost(0.12, 0.05),
    CryptoOp.SECURE_WRAP: OpCost(8.95, 1.25),
    CryptoOp.SECURE_UNWRAP: OpCost(8.65, 1.25),
}


class CryptoCostModel:
    """Samples virtual-time costs for crypto operations.

    A single model instance owns one RNG stream, so a simulation seeded once
    produces identical cost sequences run-to-run.
    """

    def __init__(
        self,
        calibration: Mapping[CryptoOp, OpCost] | None = None,
        seed: int | None = None,
        scale: float = 1.0,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        """``scale`` uniformly rescales all costs (e.g. to model faster CPUs)."""
        if scale <= 0:
            raise ConfigurationError(f"scale must be positive, got {scale}")
        self._costs = dict(calibration or PAPER_CALIBRATION)
        missing = [op for op in CryptoOp if op not in self._costs]
        if missing:
            raise ConfigurationError(f"calibration missing ops: {missing}")
        self._rng = random.Random(seed)
        self.scale = scale
        self._metrics = metrics

    def mean_ms(self, op: CryptoOp) -> float:
        """Deterministic mean cost (used by analytic predictions in tests)."""
        return self._costs[op].mean_ms * self.scale

    def sample_ms(self, op: CryptoOp) -> float:
        """One random cost draw for ``op``."""
        cost = self._costs[op]
        draw = self._rng.gauss(cost.mean_ms, cost.std_ms)
        sampled = max(cost.floor_ms, draw) * self.scale
        if self._metrics is not None:
            self._metrics.counter("crypto.ops.total").inc()
            self._metrics.counter(f"crypto.ops.{op.value}").inc()
            self._metrics.histogram(f"crypto.ms.{op.value}").observe(sampled)
        return sampled
