"""Ingestion adapters: journal records and trace streams into the store.

Two feeds populate an :class:`~repro.analytics.store.AnalyticsStore`:

* :class:`TraceIngestor` hooks a tracker's ``on_trace`` callback (the
  same chaining seam the network forecaster uses) and
  persists every verified trace as a ``trace.observed`` event *while the
  run executes* — appends consume no virtual time and draw no random
  numbers, so an instrumented run stays bit-identical to a bare one
  (``tests/analytics`` pins this against the chaos seed).
* :func:`ingest_journal` copies the deployment's
  :class:`~repro.obs.journal.EventJournal` after the run, preserving
  each record's kind so audit evidence (``session.created``,
  ``fault.failover``, ``terminated``, ``key.distributed`` …) survives in
  the persistent log.

``Deployment.attach_analytics`` threads the trace feed through every
current and future tracker; ``repro.faults.run_scenario`` accepts an
``analytics_store=`` and finalizes both feeds plus run metadata.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analytics.availability import TRACE_OBSERVED
from repro.analytics.store import AnalyticsStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.journal import EventJournal
    from repro.tracing.tracker import ReceivedTrace, Tracker

#: Instrument names (documented in docs/OBSERVABILITY.md).
_JOURNAL_RECORDS = "analytics.ingest.journal_records"
_TRACES = "analytics.ingest.traces"


class TraceIngestor:
    """Persist every verified trace a tracker receives as a store event."""

    def __init__(self, store: AnalyticsStore, tracker: "Tracker") -> None:
        self.store = store
        self.tracker = tracker
        self._previous_hook = tracker.on_trace
        tracker.on_trace = self._observe

    def _observe(self, trace: "ReceivedTrace") -> None:
        self.store.append(
            trace.received_ms,
            TRACE_OBSERVED,
            entity=trace.entity_id,
            value=trace.latency_ms,
            trace_type=trace.trace_type.value,
            tracker=self.tracker.tracker_id,
        )
        metrics = self.store.metrics
        if metrics is not None:
            metrics.counter(_TRACES).inc()
        if self._previous_hook is not None:
            self._previous_hook(trace)


def ingest_journal(store: AnalyticsStore, journal: "EventJournal") -> int:
    """Copy every journal record into the store, preserving kinds.

    The journal's typed columns map onto the store's: ``principal``
    becomes the event's ``entity`` unless the record carries an explicit
    ``entity`` field, fault targets become the ``broker`` column when
    they name one, and ``recovery_ms`` is promoted to the numeric
    ``value``.  Returns the number of records copied.
    """
    copied = 0
    for record in journal:
        fields = dict(record.fields)
        entity = fields.pop("entity", None) or record.principal
        broker = fields.pop("broker", None)
        value = fields.get("recovery_ms")
        if record.topic is not None:
            fields["topic"] = record.topic
        if record.size_bytes is not None:
            fields["size_bytes"] = record.size_bytes
        store.append(
            record.time_ms,
            record.kind,
            entity=(str(entity) if entity is not None else None),
            broker=(str(broker) if broker is not None else None),
            value=(float(value) if value is not None else None),
            **fields,
        )
        copied += 1
    metrics = store.metrics
    if metrics is not None:
        metrics.counter(_JOURNAL_RECORDS).inc(copied)
    return copied
