"""The availability analytics store: an append-only, queryable event log.

The store is the system-of-record tier above the in-flight
:class:`~repro.obs.journal.EventJournal`: journal records and verified
trace observations are *ingested* into it (``repro.analytics.ingest``),
after which SLO-style questions — uptime per entity, outage histograms,
MTTR percentiles — are answered by pure queries over the persisted log
(``repro.analytics.reports``), never by re-running the simulation.

The log is a list of :class:`~repro.analytics.events.AnalyticsEvent`
whose ``seq`` is the 1-based position.  It has one on-disk form:
``export_json`` / ``from_json`` (``save`` / ``load``) round-trip the
whole store (events + run metadata), which is how the committed seed
snapshot under ``benchmarks/results/analytics/`` is produced and
replayed byte-for-byte in CI.  A malformed or unreadable snapshot ends
in :class:`~repro.errors.AnalyticsError` or
:class:`~repro.errors.MalformedFrameError`, never a bare builtin.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib

from repro.errors import AnalyticsError
from repro.obs.registry import MetricsRegistry
from repro.util.serialization import Fields

from repro.analytics.events import AnalyticsEvent

#: Instrument names the store registers when bound to a registry
#: (documented in docs/OBSERVABILITY.md).
_EVENTS_INGESTED = "analytics.events.ingested"
_STORE_EVENTS = "analytics.store.events"


class AnalyticsStore:
    """Append-only analytics event log, queried in ``seq`` order."""

    def __init__(self) -> None:
        self._events: list[AnalyticsEvent] = []
        self.meta: dict = {}
        #: The registry appends and the ingest feeds count into; see :meth:`bind_metrics`.
        self.metrics: MetricsRegistry | None = None

    # ------------------------------------------------------------------ writes

    def append(
        self,
        time_ms: float,
        kind: str,
        /,
        entity: str | None = None,
        broker: str | None = None,
        value: float | None = None,
        **fields,
    ) -> AnalyticsEvent:
        """Append one event at virtual time ``time_ms`` and return it.

        ``time_ms`` and ``kind`` are positional-only, so ``fields`` may
        carry keys of those names.
        """
        event = AnalyticsEvent(
            seq=len(self._events) + 1,
            time_ms=float(time_ms),
            kind=kind,
            entity=entity,
            broker=broker,
            value=(float(value) if value is not None else None),
            fields=fields,
        )
        self._events.append(event)
        if self.metrics is not None:
            self.metrics.counter(_EVENTS_INGESTED).inc()
            self.metrics.gauge(_STORE_EVENTS).set(len(self._events))
        return event

    def set_meta(self, **meta) -> None:
        """Merge run metadata (scenario name, seed, horizon) into the store."""
        self.meta.update(meta)

    def bind_metrics(self, metrics: MetricsRegistry) -> None:
        """Attach a registry so appends count into ``analytics.*``."""
        self.metrics = metrics

    # ------------------------------------------------------------------ queries

    def events(
        self,
        kind: str | None = None,
        entity: str | None = None,
        since_ms: float | None = None,
        until_ms: float | None = None,
    ) -> list[AnalyticsEvent]:
        """Events matching every given filter (``since_ms`` inclusive,
        ``until_ms`` exclusive), in ``seq`` order."""
        return [
            event
            for event in self._events
            if (kind is None or event.kind == kind)
            and (entity is None or event.entity == entity)
            and (since_ms is None or event.time_ms >= since_ms)
            and (until_ms is None or event.time_ms < until_ms)
        ]

    def kinds(self) -> dict[str, int]:
        """Event kind -> occurrence count."""
        counts: dict[str, int] = {}
        for event in self._events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def count(self) -> int:
        """Total stored events."""
        return len(self._events)

    # ------------------------------------------------------------------- export

    def export_json(self, indent: int = 2) -> str:
        """The whole store (meta + events) as deterministic JSON."""
        return json.dumps(
            {
                "meta": dict(self.meta),
                "events": [event.to_dict() for event in self._events],
            },
            indent=indent,
            sort_keys=True,
            default=str,
        )

    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        """Write :meth:`export_json` (plus trailing newline) to ``path``.

        The text goes to a temporary file beside ``path`` that replaces it
        only once written, so a failed write raises :class:`AnalyticsError`
        and leaves any earlier snapshot at ``path`` intact.
        """
        path = pathlib.Path(path)
        partial = path.with_name(f".{path.name}.partial")
        try:
            partial.write_text(self.export_json() + "\n", encoding="utf-8")
            os.replace(partial, path)
        except OSError as exc:
            partial.unlink(missing_ok=True)
            raise AnalyticsError(f"cannot write analytics snapshot {path}: {exc}") from None
        return path

    @classmethod
    def from_json(cls, text: str) -> "AnalyticsStore":
        """Rebuild a store from an :meth:`export_json` document.

        Events are renumbered by position, so ``seq`` is 1..n whatever the
        document says.
        """
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise AnalyticsError(f"invalid analytics snapshot: {exc}") from None
        document = Fields(data, cls)
        store = cls()
        store.meta = dict(document.mapping("meta", {}))
        for seq, row in enumerate(document.items("events"), start=1):
            event = AnalyticsEvent.from_dict(row)
            store._events.append(dataclasses.replace(event, seq=seq))
        return store

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "AnalyticsStore":
        """Read a snapshot file written by :meth:`save`."""
        try:
            text = pathlib.Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise AnalyticsError(f"cannot read analytics snapshot {path}: {exc}") from None
        return cls.from_json(text)
