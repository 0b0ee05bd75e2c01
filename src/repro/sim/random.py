"""Named, independent random streams derived from one master seed.

Every stochastic component (link jitter, crypto cost model, UDP loss, NTP
skew, ...) draws from its own stream so that adding a new consumer never
perturbs the draws seen by existing ones — the property that keeps
regression baselines stable as the simulation grows.
"""

from __future__ import annotations

import hashlib
import random


class RandomStreams:
    """Factory of deterministic :class:`random.Random` streams."""

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = master_seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """The stream called ``name`` (created on first use)."""
        if name not in self._streams:
            self._streams[name] = random.Random(self.derive_seed(name))
        return self._streams[name]

    def derive_seed(self, name: str) -> int:
        """A 64-bit seed derived from (master_seed, name) via SHA-256."""
        material = f"{self.master_seed}:{name}".encode("utf-8")
        return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")
