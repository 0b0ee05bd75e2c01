"""Metric instruments: counters, gauges and histograms.

The three instrument kinds mirror what production metrics systems expose
(Prometheus, OpenTelemetry) while staying zero-dependency:

* :class:`Counter` — a monotonically increasing integer (messages routed,
  signatures verified, violations recorded).
* :class:`Gauge` — a value that goes up and down (queue depth, messages
  in flight).
* :class:`Histogram` — a streaming distribution.  Exact moments come from
  :class:`~repro.util.stats.RunningStats` (the same Welford accumulator the
  paper tables are built on); approximate percentiles come from a fixed set
  of bucket boundaries, so no raw samples are retained no matter how long a
  simulation runs.
"""

from __future__ import annotations

import bisect
import math

from repro.errors import InstrumentError
from repro.util.stats import RunningStats, StatSummary

#: Default histogram bucket upper bounds, in milliseconds.  Spans the range
#: the paper reports: sub-ms AES operations up to multi-second detection
#: latencies.  Values above the last bound land in an implicit +inf bucket.
DEFAULT_BUCKETS_MS: tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1_000.0, 2_500.0, 5_000.0, 10_000.0, 60_000.0,
)


class Counter:
    """A named monotonically increasing count."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0

    @property
    def value(self) -> int:
        """The current count."""
        return self._value

    def inc(self, by: int = 1) -> None:
        """Add ``by`` (must be non-negative — counters never decrease)."""
        if by < 0:
            raise InstrumentError(f"counter {self.name!r} cannot decrease (by={by})")
        self._value += by

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self._value}>"


class Gauge:
    """A named value that may move in either direction."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    @property
    def value(self) -> float:
        """The current level."""
        return self._value

    def set(self, value: float) -> None:
        """Replace the level outright."""
        self._value = float(value)

    def inc(self, by: float = 1.0) -> None:
        """Raise the level by ``by``."""
        self._value += by

    def dec(self, by: float = 1.0) -> None:
        """Lower the level by ``by``."""
        self._value -= by

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self._value}>"


class Histogram:
    """Streaming distribution: exact moments plus fixed percentile buckets.

    ``observe()`` is O(log buckets); memory is O(buckets) regardless of how
    many samples arrive, which is what lets the hot paths record every
    message without the benchmark-only "retain all samples" pattern.
    """

    __slots__ = ("name", "bounds", "_bucket_counts", "_overflow", "_stats")

    def __init__(
        self, name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS_MS
    ) -> None:
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise InstrumentError("bucket bounds must be strictly increasing")
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        self._bucket_counts = [0] * len(self.bounds)
        self._overflow = 0
        self._stats = RunningStats()

    # -- recording -------------------------------------------------------------

    def observe(self, value: float) -> None:
        """Incorporate one sample."""
        self._stats.add(value)
        index = bisect.bisect_left(self.bounds, value)
        if index >= len(self.bounds):
            self._overflow += 1
        else:
            self._bucket_counts[index] += 1

    # -- exact moments (Welford) -----------------------------------------------

    @property
    def count(self) -> int:
        """Samples observed so far."""
        return self._stats.count

    @property
    def mean(self) -> float:
        """Exact running mean (Welford)."""
        return self._stats.mean

    @property
    def std_dev(self) -> float:
        """Exact running standard deviation (Welford)."""
        return self._stats.std_dev

    @property
    def maximum(self) -> float:
        """Largest sample observed."""
        return self._stats.maximum

    def summary(self) -> StatSummary:
        """The paper-format summary (mean, std dev, std error, min, max)."""
        return self._stats.summary()

    # -- bucketed percentiles ----------------------------------------------------

    def bucket_counts(self) -> dict[str, int]:
        """Cumulative-free view: ``"<=bound" -> count`` plus ``"+inf"``."""
        out = {f"<={b:g}": c for b, c in zip(self.bounds, self._bucket_counts, strict=True)}
        out["+inf"] = self._overflow
        return out

    def percentile(self, q: float) -> float:
        """Bucket-estimated percentile, ``q`` in [0, 100].

        Linear interpolation inside the containing bucket, clamped to the
        observed min/max so estimates never leave the sampled range.
        """
        if not 0.0 <= q <= 100.0:
            raise InstrumentError(f"percentile out of range: {q}")
        n = self._stats.count
        if n == 0:
            raise InstrumentError(f"histogram {self.name!r} is empty")
        rank = (q / 100.0) * n
        cumulative = 0
        lower = 0.0
        for bound, count in zip(self.bounds, self._bucket_counts, strict=True):
            upper = bound
            if cumulative + count >= rank and count > 0:
                frac = (rank - cumulative) / count
                estimate = lower + frac * (upper - lower)
                return min(max(estimate, self._stats.minimum), self._stats.maximum)
            cumulative += count
            lower = upper
        # rank falls in the overflow bucket: the best bound is the max seen
        return self._stats.maximum

    def to_dict(self) -> dict:
        """JSON-ready export: moments, key percentiles, bucket counts."""
        if self.count == 0:
            return {"count": 0}
        summary = self.summary()
        return {
            "count": summary.count,
            "mean": summary.mean,
            "std_dev": summary.std_dev,
            "std_error": summary.std_error,
            "min": summary.minimum,
            "max": summary.maximum,
            "p50": self.percentile(50.0),
            "p90": self.percentile(90.0),
            "p99": self.percentile(99.0),
            "buckets": self.bucket_counts(),
        }

    def __repr__(self) -> str:
        if self.count == 0:
            return f"<Histogram {self.name} empty>"
        return (
            f"<Histogram {self.name} n={self.count} mean={self.mean:.3f}>"
        )


def format_value(value: float) -> str:
    """Compact numeric rendering for text snapshots."""
    if isinstance(value, int) or (math.isfinite(value) and value == int(value)):
        return str(int(value))
    return f"{value:.3f}"
