"""Virtual-time span measurement.

A :class:`Timer` brackets a code region and records its duration into a
:class:`~repro.obs.instruments.Histogram`.  The clock is injected — inside
the simulator it is the :class:`~repro.util.clock.VirtualClock` (or a
node's skewed view of it), so measured spans are in *virtual* milliseconds
and deterministic run-to-run.

Timers are re-entrant-safe in the simple sense that each ``with`` block
measures independently, and they work inside simulation process bodies::

    with registry.timer("tdn.query.latency_ms", sim.clock):
        result = yield from self._serve(query)   # clock advances across yields
"""

from __future__ import annotations

from repro.obs.instruments import Histogram
from repro.util.clock import Clock


class Timer:
    """Context manager recording elapsed clock time into a histogram."""

    __slots__ = ("histogram", "clock", "_start", "last_ms")

    def __init__(self, histogram: Histogram, clock: Clock) -> None:
        self.histogram = histogram
        self.clock = clock
        self._start: float | None = None
        #: Duration of the most recently completed span, in milliseconds.
        self.last_ms: float | None = None

    def __enter__(self) -> "Timer":
        self._start = self.clock.now()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._start is None:  # pragma: no cover - enter always sets it
            return
        self.last_ms = self.clock.now() - self._start
        self._start = None
        # spans that raise are still spans: record them so error paths are
        # visible in latency distributions rather than silently missing
        self.histogram.observe(self.last_ms)

    def observe_span(self, start_ms: float, end_ms: float) -> float:
        """Record an externally measured span (for callback-style code)."""
        duration = end_ms - start_ms
        self.histogram.observe(duration)
        self.last_ms = duration
        return duration
