"""Clock abstractions: virtual simulation time and NTP skew.

All times in this library are float **milliseconds**, matching the units the
paper reports.  The authorization-token validity check (section 4.3) tolerates
clock skew because "use of NTP timestamps ensures that timestamps are within
30-100 milliseconds of each other"; :class:`NTPSkewModel` reproduces exactly
that band so token-expiry edge cases can be exercised in tests.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod

from repro.errors import ConfigurationError, ValidationError

#: The paper's stated NTP synchronization band, in milliseconds.
NTP_SKEW_MIN_MS = 30.0
NTP_SKEW_MAX_MS = 100.0


class Clock(ABC):
    """Read-only source of the current time in milliseconds."""

    @abstractmethod
    def now(self) -> float:
        """Current time in milliseconds."""


class VirtualClock(Clock):
    """Simulation clock advanced explicitly by the event loop."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance_to(self, t: float) -> None:
        """Move the clock forward to absolute time ``t`` (never backward)."""
        if t < self._now:
            raise ValidationError(f"clock cannot move backward: {t} < {self._now}")
        self._now = t

    def advance_by(self, dt: float) -> None:
        """Move the clock forward by ``dt`` milliseconds."""
        if dt < 0:
            raise ValidationError(f"negative advance: {dt}")
        self._now += dt


class SkewedClock(Clock):
    """A node-local view of a reference clock, offset by a fixed skew.

    Models imperfect NTP synchronization: each node reads the shared
    simulation clock plus its own constant offset.
    """

    def __init__(self, reference: Clock, offset_ms: float) -> None:
        self._reference = reference
        self.offset_ms = float(offset_ms)

    def now(self) -> float:
        return self._reference.now() + self.offset_ms


class NTPSkewModel:
    """Draws per-node clock offsets within the paper's 30-100 ms NTP band.

    Offsets are symmetric around zero: a node may run ahead or behind the
    reference by 30-100 ms in magnitude, or be perfectly synchronized with
    probability ``p_synced``.
    """

    def __init__(
        self,
        seed: int | None = None,
        min_skew_ms: float = NTP_SKEW_MIN_MS,
        max_skew_ms: float = NTP_SKEW_MAX_MS,
        p_synced: float = 0.0,
    ) -> None:
        if min_skew_ms < 0 or max_skew_ms < min_skew_ms:
            raise ConfigurationError("require 0 <= min_skew_ms <= max_skew_ms")
        if not 0.0 <= p_synced <= 1.0:
            raise ConfigurationError("p_synced must be in [0, 1]")
        self._rng = random.Random(seed)
        self.min_skew_ms = min_skew_ms
        self.max_skew_ms = max_skew_ms
        self.p_synced = p_synced

    def sample_offset(self) -> float:
        """One signed clock offset in milliseconds."""
        if self._rng.random() < self.p_synced:
            return 0.0
        magnitude = self._rng.uniform(self.min_skew_ms, self.max_skew_ms)
        sign = 1.0 if self._rng.random() < 0.5 else -1.0
        return sign * magnitude

    def clock_for_node(self, reference: Clock) -> SkewedClock:
        """A new skewed view of ``reference`` for one node."""
        return SkewedClock(reference, self.sample_offset())

    @property
    def tolerance_ms(self) -> float:
        """Skew bound a validity check must tolerate (the paper's 100 ms)."""
        return self.max_skew_ms
