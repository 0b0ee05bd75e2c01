"""Streaming statistics matching the paper's reporting format.

Table 3 and Table 4 report mean, standard deviation and standard error for
each operation; :class:`RunningStats` accumulates those with Welford's
numerically stable online algorithm so benchmark harnesses never need to
retain raw samples (though they may, for percentile reporting).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import StatsError


@dataclass(frozen=True, slots=True)
class StatSummary:
    """Immutable summary in the paper's table format."""

    count: int
    mean: float
    std_dev: float
    std_error: float
    minimum: float
    maximum: float


class RunningStats:
    """Welford online mean/variance accumulator.

    >>> rs = RunningStats()
    >>> for x in (1.0, 2.0, 3.0): rs.add(x)
    >>> rs.mean
    2.0
    """

    __slots__ = ("_n", "_mean", "_m2", "_min", "_max")

    def __init__(self) -> None:
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def add(self, x: float) -> None:
        """Incorporate one sample."""
        self._n += 1
        delta = x - self._mean
        self._mean += delta / self._n
        self._m2 += delta * (x - self._mean)
        if x < self._min:
            self._min = x
        if x > self._max:
            self._max = x

    def extend(self, xs: Iterable[float]) -> None:
        for x in xs:
            self.add(x)

    @property
    def count(self) -> int:
        return self._n

    @property
    def mean(self) -> float:
        if self._n == 0:
            raise StatsError("no samples")
        return self._mean

    @property
    def variance(self) -> float:
        """Sample (Bessel-corrected) variance."""
        if self._n < 2:
            return 0.0
        return self._m2 / (self._n - 1)

    @property
    def std_dev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def std_error(self) -> float:
        """Standard error of the mean (σ / √n)."""
        if self._n == 0:
            return 0.0
        return self.std_dev / math.sqrt(self._n)

    @property
    def minimum(self) -> float:
        if self._n == 0:
            raise StatsError("no samples")
        return self._min

    @property
    def maximum(self) -> float:
        if self._n == 0:
            raise StatsError("no samples")
        return self._max

    def summary(self) -> StatSummary:
        if self._n == 0:
            raise StatsError("no samples to summarize")
        return StatSummary(
            count=self._n,
            mean=self.mean,
            std_dev=self.std_dev,
            std_error=self.std_error,
            minimum=self._min,
            maximum=self._max,
        )


def summarize(samples: Sequence[float]) -> StatSummary:
    """Summary of a finished sample set."""
    rs = RunningStats()
    rs.extend(samples)
    return rs.summary()
