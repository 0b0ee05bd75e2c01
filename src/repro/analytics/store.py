"""The availability analytics store: an append-only, queryable event log.

The store is the system-of-record tier above the in-flight
:class:`~repro.obs.journal.EventJournal`: journal records and verified
trace observations are *ingested* into it (``repro.analytics.ingest``),
after which SLO-style questions — uptime per entity, outage histograms,
MTTR percentiles — are answered by pure queries over the persisted log
(``repro.analytics.reports``), never by re-running the simulation.

Storage is pluggable (:mod:`repro.analytics.backends`): the in-memory
backend serves tests and short scripts, sqlite persists across processes,
and both answer every query identically.  ``export_json`` /
``from_json`` round-trip the whole store (events + run metadata), which
is how the committed seed snapshot under ``benchmarks/results/analytics/``
is produced and replayed byte-for-byte in CI.
"""

from __future__ import annotations

import json
import pathlib
from typing import Mapping

from repro.errors import AnalyticsError
from repro.obs.registry import MetricsRegistry

from repro.analytics.backends import AnalyticsBackend, MemoryBackend
from repro.analytics.events import AnalyticsEvent

#: Instrument names the store registers when bound to a registry
#: (documented in docs/OBSERVABILITY.md).
_EVENTS_INGESTED = "analytics.events.ingested"
_STORE_EVENTS = "analytics.store.events"


class AnalyticsStore:
    """Append-only analytics event log over a pluggable backend."""

    def __init__(
        self,
        backend: AnalyticsBackend | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.backend: AnalyticsBackend = (
            backend if backend is not None else MemoryBackend()
        )
        self.meta: dict = {}
        self._metrics = metrics

    # ------------------------------------------------------------------ writes

    def append(
        self,
        time_ms: float,
        kind: str,
        entity: str | None = None,
        broker: str | None = None,
        value: float | None = None,
        **fields,
    ) -> AnalyticsEvent:
        """Append one event at virtual time ``time_ms`` and return it."""
        event = self.backend.append(
            time_ms, kind, entity=entity, broker=broker, value=value, fields=fields
        )
        if self._metrics is not None:
            self._metrics.counter(_EVENTS_INGESTED).inc()
            self._metrics.gauge(_STORE_EVENTS).set(self.backend.count())
        return event

    def set_meta(self, **meta) -> None:
        """Merge run metadata (scenario name, seed, horizon) into the store."""
        self.meta.update(meta)

    def bind_metrics(self, metrics: MetricsRegistry) -> None:
        """Attach a registry so appends count into ``analytics.*``."""
        self._metrics = metrics

    # ------------------------------------------------------------------ queries

    def events(
        self,
        kind: str | None = None,
        entity: str | None = None,
        since_ms: float | None = None,
        until_ms: float | None = None,
    ) -> list[AnalyticsEvent]:
        """Events matching every given filter, in ``seq`` order."""
        return self.backend.events(
            kind=kind, entity=entity, since_ms=since_ms, until_ms=until_ms
        )

    def kinds(self) -> dict[str, int]:
        """Event kind -> occurrence count."""
        return self.backend.kinds()

    def entities(self) -> list[str]:
        """Distinct entities mentioned by any event, sorted."""
        return self.backend.entities()

    def count(self) -> int:
        """Total stored events."""
        return self.backend.count()

    def summary(self) -> dict:
        """Small JSON block for ``Deployment.snapshot()`` embedding."""
        return {
            "backend": self.backend.name,
            "events": self.count(),
            "kinds": self.kinds(),
        }

    # ------------------------------------------------------------------- export

    def export_json(self, indent: int = 2) -> str:
        """The whole store (meta + events) as deterministic JSON."""
        return json.dumps(
            {
                "meta": dict(self.meta),
                "events": [event.to_dict() for event in self.events()],
            },
            indent=indent,
            sort_keys=True,
            default=str,
        )

    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        """Write :meth:`export_json` (plus trailing newline) to ``path``."""
        path = pathlib.Path(path)
        path.write_text(self.export_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def from_json(
        cls, text: str, backend: AnalyticsBackend | None = None
    ) -> "AnalyticsStore":
        """Rebuild a store from an :meth:`export_json` document."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise AnalyticsError(f"invalid analytics snapshot: {exc}") from None
        if not isinstance(data, Mapping) or "events" not in data:
            raise AnalyticsError(
                "analytics snapshot must be an object with an 'events' array"
            )
        store = cls(backend=backend)
        store.meta = dict(data.get("meta", {}))
        for row in data["events"]:
            event = AnalyticsEvent.from_dict(row)
            store.backend.append(
                event.time_ms,
                event.kind,
                entity=event.entity,
                broker=event.broker,
                value=event.value,
                fields=dict(event.fields),
            )
        return store

    @classmethod
    def load(
        cls,
        path: str | pathlib.Path,
        backend: AnalyticsBackend | None = None,
    ) -> "AnalyticsStore":
        """Read a snapshot file written by :meth:`save`."""
        return cls.from_json(
            pathlib.Path(path).read_text(encoding="utf-8"), backend=backend
        )

    def close(self) -> None:
        """Close the underlying backend."""
        self.backend.close()
