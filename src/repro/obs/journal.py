"""Structured event journal: an append-only log of typed records.

Where the :class:`~repro.obs.registry.MetricsRegistry` aggregates, the
journal *narrates*: one record per noteworthy protocol event (a violation,
a dropped payload, a failure declaration), with the fields an operator
greps for — topic, principal, byte size — promoted to first-class columns
and everything else carried in ``fields``.

The journal has no file format of its own: ``ingest_journal``
(:mod:`repro.analytics.ingest`) copies it into the analytics store,
whose JSON snapshot is the one persisted event log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping


@dataclass(frozen=True, slots=True)
class JournalRecord:
    """One typed journal entry."""

    time_ms: float
    kind: str
    topic: str | None = None
    principal: str | None = None
    size_bytes: int | None = None
    fields: Mapping[str, object] = field(default_factory=dict)


class EventJournal:
    """Append-only list of :class:`JournalRecord`."""

    def __init__(self) -> None:
        self._records: list[JournalRecord] = []

    # -- recording -------------------------------------------------------------

    def record(
        self,
        time_ms: float,
        kind: str,
        topic: str | None = None,
        principal: str | None = None,
        size_bytes: int | None = None,
        **fields,
    ) -> JournalRecord:
        """Append (and return) one typed record at virtual time ``time_ms``."""
        entry = JournalRecord(
            time_ms=float(time_ms),
            kind=kind,
            topic=topic,
            principal=principal,
            size_bytes=size_bytes,
            fields=fields,
        )
        self._records.append(entry)
        return entry

    # -- reading ----------------------------------------------------------------

    def records(self, kind: str | None = None) -> list[JournalRecord]:
        """All records, or just those of one ``kind``, in append order."""
        if kind is None:
            return list(self._records)
        return [r for r in self._records if r.kind == kind]

    def kinds(self) -> dict[str, int]:
        """Event kind -> occurrence count."""
        counts: dict[str, int] = {}
        for entry in self._records:
            counts[entry.kind] = counts.get(entry.kind, 0) + 1
        return counts

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[JournalRecord]:
        return iter(self._records)
