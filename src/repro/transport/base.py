"""Transport profile: the timing and reliability contract of a channel."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple

from repro.errors import ConfigurationError


@dataclass(frozen=True, slots=True)
class TransportProfile:
    """Parameters describing one transport's behaviour on one link.

    Latency of a single payload is::

        base_latency_ms + jitter + per_kb_ms * size_kb  (+ retransmits)

    ``reliable`` transports never lose payloads; a loss sample instead costs
    one ``retransmit_timeout_ms`` penalty (the simulated retransmission).
    ``ordered`` transports deliver FIFO per link; unordered ones may deliver
    a later send before an earlier one when jitter reorders them.
    """

    name: str
    base_latency_ms: float
    jitter_ms: float
    per_kb_ms: float
    loss_probability: float
    reliable: bool
    ordered: bool
    retransmit_timeout_ms: float = 0.0
    max_retransmits: int = 8

    def __post_init__(self) -> None:
        if self.base_latency_ms < 0 or self.jitter_ms < 0 or self.per_kb_ms < 0:
            raise ConfigurationError("latency parameters must be non-negative")
        if not 0.0 <= self.loss_probability < 1.0:
            raise ConfigurationError(
                f"loss probability must be in [0, 1): {self.loss_probability}"
            )
        if self.reliable and self.loss_probability > 0 and self.retransmit_timeout_ms <= 0:
            raise ConfigurationError(
                "reliable transport with loss needs a retransmit timeout"
            )

    def sample_latency_ms(self, size_bytes: int, rng: random.Random) -> float:
        """One latency draw for a payload of ``size_bytes``."""
        jitter = rng.gauss(0.0, self.jitter_ms) if self.jitter_ms else 0.0
        latency = self.base_latency_ms + jitter + self.per_kb_ms * (size_bytes / 1024.0)
        return max(0.01, latency)

    def sample_loss(self, rng: random.Random) -> bool:
        """True if this packet instance is lost."""
        return self.loss_probability > 0 and rng.random() < self.loss_probability


class DeliveryReceipt(NamedTuple):
    """What a link reports about one send attempt."""

    delivered: bool
    latency_ms: float
    retransmits: int
    size_bytes: int

