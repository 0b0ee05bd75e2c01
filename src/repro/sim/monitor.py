"""Measurement capture for simulations.

A :class:`Monitor` is the distribution point for the observability layer
(:mod:`repro.obs`): it owns one :class:`~repro.obs.MetricsRegistry` and one
:class:`~repro.obs.EventJournal` per deployment, which instrumented
components reach through ``monitor.metrics`` / ``monitor.journal``.  The
registry carries every convention-named instrument (``broker.*``,
``tracker.*``, ``entity.*``, ``transport.*``, ``tdn.*``, ``crypto.*``) that
``Deployment.snapshot()`` consumers and the ``repro metrics`` CLI read.

The monitor's own counters (:meth:`Monitor.increment`) are what is left of
a second counting system: three calls in the whole package.  Every other
component, the tracing layer included, reports to the registry only.  The
three are ``trace.published.<type>`` (``TraceManager.publish_trace``) and
the control plane's two ``control.floods``.  They stay only because the
wall-clock benchmark hashes ``counters()`` into its ``sim_digest`` and
reads ``control.floods`` and ``trace.published.FAILED`` by name (ROADMAP
item 5(a)); folding them moves that harness first.
"""

from __future__ import annotations

from collections import defaultdict

from repro.errors import MalformedFrameError
from repro.obs import EventJournal, MetricsRegistry


class Monitor:
    """The registry, the journal and the counts the benchmark still reads."""

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

    # -- journal -----------------------------------------------------------------

    def log_malformed(self, time_ms: float, exc: Exception, source: str, **where) -> None:
        """Journal ``envelope.malformed`` when ``exc`` says a frame from
        ``source`` did not parse; a signature that parses and fails to
        verify is only counted."""
        if isinstance(exc, MalformedFrameError):
            self.journal.record(
                time_ms, "envelope.malformed", principal=source, reason=str(exc), **where
            )
