"""Availability archive: a live per-entity view over the analytics store.

A downstream consumer of the tracing scheme usually wants more than raw
traces: *was the service up at 14:02?  what is its uptime?  how long do
its outages last?*  The archive answers those per entity.

Since the analytics store landed (docs/ANALYTICS.md) the archive is a
**view**, not a second bookkeeper: attaching it installs a
:class:`~repro.analytics.TraceIngestor` so every verified trace is
persisted as a ``trace.observed`` store event, and the per-entity
records are materialized *from those stored events* via the shared
interval algebra in :mod:`repro.analytics.availability`.  A record is a
:class:`~repro.analytics.EntityTimeline`, and record references stay
live: materialization runs on every trace arrival, so a record handed
out earlier keeps updating.

Availability semantics (defined once, in
:mod:`repro.analytics.availability`): an entity is **up** from its JOIN
(or first READY) until a FAILED, DISCONNECT, SHUTDOWN or
REVERTING_TO_SILENT_MODE trace; FAILURE_SUSPICION marks the entity
*suspect* but not yet down; RECOVERING counts as up.
"""

from __future__ import annotations

from repro.analytics.availability import TRACE_OBSERVED, EntityTimeline, build_timelines
from repro.analytics.ingest import TraceIngestor
from repro.analytics.store import AnalyticsStore
from repro.tracing.tracker import ReceivedTrace, Tracker

__all__ = ["AvailabilityArchive"]


class AvailabilityArchive:
    """Attach to a tracker; maintain availability records over the store.

    ``store`` defaults to a private in-memory
    :class:`~repro.analytics.AnalyticsStore`; pass a shared one to make
    the same persisted log feed the archive, the SLO reports and the
    ``repro analytics`` CLI at once.
    """

    def __init__(self, tracker: Tracker, store: AnalyticsStore | None = None) -> None:
        self.tracker = tracker
        self.store = store if store is not None else AnalyticsStore()
        self._records: dict[str, EntityTimeline] = {}
        self._seen_seq = 0
        # the ingestor persists the trace (chaining any prior hook), then
        # our hook folds the newly stored events into the record view —
        # reads always derive from what the store actually holds
        self._ingestor = TraceIngestor(self.store, tracker)
        inner = tracker.on_trace

        def _hook(trace: ReceivedTrace) -> None:
            inner(trace)
            self._materialize()

        tracker.on_trace = _hook

    def _materialize(self) -> None:
        """Fold store events newer than the last seen seq into records."""
        fresh = [
            event
            for event in self.store.events(kind=TRACE_OBSERVED)
            if event.seq > self._seen_seq
        ]
        if fresh:
            build_timelines(fresh, self._records)
            self._seen_seq = fresh[-1].seq

    @property
    def records(self) -> dict[str, EntityTimeline]:
        """Entity id -> record, refreshed from the store on access."""
        self._materialize()
        return self._records

    def record_of(self, entity_id: str) -> EntityTimeline | None:
        self._materialize()
        return self._records.get(entity_id)

    def report(self, now_ms: float) -> str:
        """A small availability report for every observed entity."""
        self._materialize()
        lines = [
            f"{'entity':<20s} {'state':>8s} {'uptime %':>9s} {'outages':>8s} "
            f"{'MTTR (s)':>9s}"
        ]
        for entity_id in sorted(self._records):
            record = self._records[entity_id]
            mttr = record.mean_time_to_recover_ms()
            lines.append(
                f"{entity_id:<20s} {'up' if record.up else 'down':>8s} "
                f"{100 * record.availability(now_ms):>8.2f}% "
                f"{record.down_count:>8d} "
                f"{(mttr / 1000.0 if mttr is not None else float('nan')):>9.1f}"
            )
        return "\n".join(lines)
