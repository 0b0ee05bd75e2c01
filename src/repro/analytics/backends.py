"""Pluggable storage backends for the availability analytics store.

Two interchangeable implementations sit behind one query contract, so
tests run against the in-memory backend while persistent deployments keep
the same event log in sqlite.  Both backends must return *identical*
query results for the same ingested run — ``tests/analytics`` pins that
equivalence.

Backends number events with a 1-based ``seq`` in append order; queries
always return events ordered by ``seq``, so iteration order never depends
on backend internals.
"""

from __future__ import annotations

import json
import sqlite3
from typing import Callable, Iterable

from repro.errors import AnalyticsError

from repro.analytics.events import AnalyticsEvent


class AnalyticsBackend:
    """Contract every storage backend implements (append-only + queries)."""

    #: registry name; subclasses override.
    name = "abstract"

    def append(
        self,
        time_ms: float,
        kind: str,
        entity: str | None = None,
        broker: str | None = None,
        value: float | None = None,
        fields: dict | None = None,
    ) -> AnalyticsEvent:
        """Store one event and return it with its assigned ``seq``."""
        raise NotImplementedError

    def events(
        self,
        kind: str | None = None,
        entity: str | None = None,
        since_ms: float | None = None,
        until_ms: float | None = None,
    ) -> list[AnalyticsEvent]:
        """Events matching every given filter, ordered by ``seq``."""
        raise NotImplementedError

    def kinds(self) -> dict[str, int]:
        """Event kind -> occurrence count, over the whole log."""
        raise NotImplementedError

    def entities(self) -> list[str]:
        """Distinct non-null ``entity`` values, sorted."""
        raise NotImplementedError

    def count(self) -> int:
        """Total number of stored events."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any held resources (no-op for in-memory backends)."""

    @staticmethod
    def _matches(
        event: AnalyticsEvent,
        kind: str | None,
        entity: str | None,
        since_ms: float | None,
        until_ms: float | None,
    ) -> bool:
        """Shared filter predicate (used by the in-memory backend)."""
        if kind is not None and event.kind != kind:
            return False
        if entity is not None and event.entity != entity:
            return False
        if since_ms is not None and event.time_ms < since_ms:
            return False
        if until_ms is not None and event.time_ms >= until_ms:
            return False
        return True


class MemoryBackend(AnalyticsBackend):
    """List-backed backend: the default for tests and short-lived runs."""

    name = "memory"

    def __init__(self) -> None:
        self._events: list[AnalyticsEvent] = []

    def append(
        self,
        time_ms: float,
        kind: str,
        entity: str | None = None,
        broker: str | None = None,
        value: float | None = None,
        fields: dict | None = None,
    ) -> AnalyticsEvent:
        """Append one event; ``seq`` is the 1-based position in the log."""
        event = AnalyticsEvent(
            seq=len(self._events) + 1,
            time_ms=float(time_ms),
            kind=kind,
            entity=entity,
            broker=broker,
            value=(float(value) if value is not None else None),
            fields=dict(fields or {}),
        )
        self._events.append(event)
        return event

    def events(
        self,
        kind: str | None = None,
        entity: str | None = None,
        since_ms: float | None = None,
        until_ms: float | None = None,
    ) -> list[AnalyticsEvent]:
        """Filtered view of the log, in append (``seq``) order."""
        return [
            event
            for event in self._events
            if self._matches(event, kind, entity, since_ms, until_ms)
        ]

    def kinds(self) -> dict[str, int]:
        """Event kind -> occurrence count."""
        counts: dict[str, int] = {}
        for event in self._events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def entities(self) -> list[str]:
        """Distinct entities mentioned by any event, sorted."""
        return sorted({e.entity for e in self._events if e.entity is not None})

    def count(self) -> int:
        """Total stored events."""
        return len(self._events)


class SqliteBackend(AnalyticsBackend):
    """Sqlite-backed backend: the persistent tier of the seam.

    ``path`` defaults to ``":memory:"`` (a private in-process database);
    pass a filesystem path for a store that survives the process.  The
    free-form ``fields`` mapping is stored as canonical (sorted-key) JSON
    text, so rows round-trip exactly and two backends fed the same run
    export identical snapshots.
    """

    name = "sqlite"

    _SCHEMA = """
        CREATE TABLE IF NOT EXISTS events (
            seq     INTEGER PRIMARY KEY AUTOINCREMENT,
            time_ms REAL NOT NULL,
            kind    TEXT NOT NULL,
            entity  TEXT,
            broker  TEXT,
            value   REAL,
            fields  TEXT NOT NULL DEFAULT '{}'
        );
        CREATE INDEX IF NOT EXISTS idx_events_kind ON events (kind);
        CREATE INDEX IF NOT EXISTS idx_events_entity ON events (entity);
    """

    def __init__(self, path: str = ":memory:") -> None:
        self.path = path
        self._conn = sqlite3.connect(path)
        self._conn.executescript(self._SCHEMA)

    def append(
        self,
        time_ms: float,
        kind: str,
        entity: str | None = None,
        broker: str | None = None,
        value: float | None = None,
        fields: dict | None = None,
    ) -> AnalyticsEvent:
        """Insert one row and return it with the assigned rowid as ``seq``."""
        payload = json.dumps(dict(fields or {}), sort_keys=True, default=str)
        cursor = self._conn.execute(
            "INSERT INTO events (time_ms, kind, entity, broker, value, fields)"
            " VALUES (?, ?, ?, ?, ?, ?)",
            (float(time_ms), kind, entity, broker, value, payload),
        )
        self._conn.commit()
        return AnalyticsEvent(
            seq=int(cursor.lastrowid),
            time_ms=float(time_ms),
            kind=kind,
            entity=entity,
            broker=broker,
            value=(float(value) if value is not None else None),
            fields=dict(fields or {}),
        )

    def events(
        self,
        kind: str | None = None,
        entity: str | None = None,
        since_ms: float | None = None,
        until_ms: float | None = None,
    ) -> list[AnalyticsEvent]:
        """Filtered rows ordered by ``seq`` (same contract as memory)."""
        clauses, params = [], []
        if kind is not None:
            clauses.append("kind = ?")
            params.append(kind)
        if entity is not None:
            clauses.append("entity = ?")
            params.append(entity)
        if since_ms is not None:
            clauses.append("time_ms >= ?")
            params.append(since_ms)
        if until_ms is not None:
            clauses.append("time_ms < ?")
            params.append(until_ms)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        rows = self._conn.execute(
            "SELECT seq, time_ms, kind, entity, broker, value, fields"
            f" FROM events{where} ORDER BY seq",
            params,
        ).fetchall()
        return [
            AnalyticsEvent(
                seq=int(seq),
                time_ms=float(time_ms),
                kind=row_kind,
                entity=row_entity,
                broker=row_broker,
                value=(float(row_value) if row_value is not None else None),
                fields=json.loads(fields_json),
            )
            for seq, time_ms, row_kind, row_entity, row_broker, row_value, fields_json
            in rows
        ]

    def kinds(self) -> dict[str, int]:
        """Event kind -> occurrence count via a grouped query."""
        rows = self._conn.execute(
            "SELECT kind, COUNT(*) FROM events GROUP BY kind ORDER BY kind"
        ).fetchall()
        return {kind: int(count) for kind, count in rows}

    def entities(self) -> list[str]:
        """Distinct non-null entities, sorted."""
        rows = self._conn.execute(
            "SELECT DISTINCT entity FROM events"
            " WHERE entity IS NOT NULL ORDER BY entity"
        ).fetchall()
        return [row[0] for row in rows]

    def count(self) -> int:
        """Total stored rows."""
        return int(self._conn.execute("SELECT COUNT(*) FROM events").fetchone()[0])

    def close(self) -> None:
        """Close the sqlite connection."""
        self._conn.close()


#: name -> factory for the two built-in backends.
_BACKENDS: dict[str, Callable[..., AnalyticsBackend]] = {
    "memory": MemoryBackend,
    "sqlite": SqliteBackend,
}


def backend_names() -> list[str]:
    """Built-in backend names, sorted."""
    return sorted(_BACKENDS)


def create_backend(name: str, **kwargs) -> AnalyticsBackend:
    """Instantiate a built-in backend by name.

    ``kwargs`` are passed to the factory (``path=`` for sqlite).
    """
    try:
        factory = _BACKENDS[name]
    except KeyError:
        raise AnalyticsError(
            f"unknown analytics backend {name!r}; known: {', '.join(backend_names())}"
        ) from None
    return factory(**kwargs)


def ingest_events(
    backend: AnalyticsBackend, events: Iterable[AnalyticsEvent]
) -> int:
    """Replay already-built events into ``backend`` (imports, migrations)."""
    appended = 0
    for event in events:
        backend.append(
            event.time_ms,
            event.kind,
            entity=event.entity,
            broker=event.broker,
            value=event.value,
            fields=dict(event.fields),
        )
        appended += 1
    return appended
