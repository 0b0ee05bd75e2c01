"""Measurement capture for simulations.

A :class:`Monitor` owns scenario-local counters and the event log;
protocol components record into it and benchmark harnesses read them
out.  Keeping measurement separate from protocol logic means the tracing
code contains no benchmark-specific branches.

The monitor is also the distribution point for the unified observability
layer (:mod:`repro.obs`): it owns one :class:`~repro.obs.MetricsRegistry`
and one :class:`~repro.obs.EventJournal` per deployment, which instrumented
components reach through ``monitor.metrics`` / ``monitor.journal``.  The
counter API remains for scenario-local bookkeeping; the registry carries
the convention-named instrument families (``broker.*``, ``tracker.*``,
``transport.*``, ``tdn.*``, ``crypto.*``) that ``Deployment.snapshot()``
consumers and the ``repro metrics`` CLI read.
"""

from __future__ import annotations

from collections import defaultdict

from repro.errors import MalformedFrameError
from repro.obs import EventJournal, MetricsRegistry


class Monitor:
    """Counters and the event log for one simulation."""

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        journal: EventJournal | None = None,
    ) -> None:
        self._counters: dict[str, int] = defaultdict(int)
        #: The deployment-wide instrument registry (repro.obs).
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: The deployment-wide structured event journal (repro.obs).
        self.journal = journal if journal is not None else EventJournal()

    # -- counters --------------------------------------------------------------

    def increment(self, name: str, by: int = 1) -> None:
        self._counters[name] += by

    def count(self, name: str) -> int:
        return self._counters.get(name, 0)

    def counters(self) -> dict[str, int]:
        return dict(self._counters)

    # -- event log ---------------------------------------------------------------

    def log(self, time_ms: float, kind: str, **details) -> None:
        """Append a structured event (stored in the shared journal)."""
        self.journal.record(
            time_ms,
            kind,
            topic=details.pop("topic", None),
            principal=details.pop("principal", None),
            size_bytes=details.pop("size_bytes", None),
            **details,
        )

    def log_malformed(self, time_ms: float, exc: Exception, source: str, **where) -> None:
        """Journal ``envelope.malformed`` when ``exc`` says a frame from
        ``source`` did not parse; a signature that parses and fails to
        verify is only counted."""
        if isinstance(exc, MalformedFrameError):
            self.journal.record(
                time_ms, "envelope.malformed", principal=source, reason=str(exc), **where
            )

    def events(self, kind: str | None = None) -> list[tuple[float, str, dict]]:
        return [
            (record.time_ms, record.kind, record.details())
            for record in self.journal.records(kind)
        ]
