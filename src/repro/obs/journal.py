"""Structured event journal: an append-only log of typed records.

Where the :class:`~repro.obs.registry.MetricsRegistry` aggregates, the
journal *narrates*: one record per noteworthy protocol event (a violation,
a dropped payload, a failure declaration), with the fields an operator
greps for — topic, principal, byte size — promoted to first-class columns
and everything else carried in ``fields``.

Exports are line-oriented text (for eyeballing) and JSON (for tooling);
``EventJournal.from_json`` round-trips the JSON export.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.util.serialization import Fields


@dataclass(frozen=True, slots=True)
class JournalRecord:
    """One typed journal entry."""

    time_ms: float
    kind: str
    topic: str | None = None
    principal: str | None = None
    size_bytes: int | None = None
    fields: Mapping[str, object] = field(default_factory=dict)

    def details(self) -> dict:
        """Flat detail dict: typed columns merged back over ``fields``."""
        out = dict(self.fields)
        if self.topic is not None:
            out["topic"] = self.topic
        if self.principal is not None:
            out["principal"] = self.principal
        if self.size_bytes is not None:
            out["size_bytes"] = self.size_bytes
        return out

    def to_dict(self) -> dict:
        """JSON-ready record form; ``from_dict`` round-trips it."""
        out: dict = {"time_ms": self.time_ms, "kind": self.kind}
        if self.topic is not None:
            out["topic"] = self.topic
        if self.principal is not None:
            out["principal"] = self.principal
        if self.size_bytes is not None:
            out["size_bytes"] = self.size_bytes
        if self.fields:
            out["fields"] = dict(self.fields)
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "JournalRecord":
        """Rebuild a record from its :meth:`to_dict` form."""
        fields = Fields(data, cls)
        return cls(
            time_ms=fields.number("time_ms"),
            kind=fields.text("kind"),
            topic=fields.text("topic", None),
            principal=fields.text("principal", None),
            size_bytes=fields.integer("size_bytes", None),
            fields=dict(fields.mapping("fields", {})),
        )

    def render(self) -> str:
        """One text line: ``t=12.5ms violation principal=mallory ...``."""
        parts = [f"t={self.time_ms:.3f}ms", self.kind]
        if self.topic is not None:
            parts.append(f"topic={self.topic}")
        if self.principal is not None:
            parts.append(f"principal={self.principal}")
        if self.size_bytes is not None:
            parts.append(f"size={self.size_bytes}B")
        for field_name in sorted(self.fields):
            parts.append(f"{field_name}={self.fields[field_name]}")
        return " ".join(parts)


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

    def append(self, entry: JournalRecord) -> None:
        """Append an already-built record (imports, replays)."""
        self._records.append(entry)

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

    # -- export ------------------------------------------------------------------

    def export_text(self, kind: str | None = None, limit: int | None = None) -> str:
        """Line-per-record text rendering (optionally filtered / tail-limited)."""
        selected = self.records(kind)
        if limit is not None:
            selected = selected[-limit:]
        return "\n".join(entry.render() for entry in selected)

    def export_json(self, indent: int = 2) -> str:
        """The whole journal as a JSON array (``from_json`` round-trips)."""
        return json.dumps(
            [entry.to_dict() for entry in self._records],
            indent=indent,
            sort_keys=True,
            default=str,
        )

    @classmethod
    def from_json(cls, text: str) -> "EventJournal":
        """Rebuild a journal from an :meth:`export_json` document."""
        journal = cls()
        for data in json.loads(text):
            journal.append(JournalRecord.from_dict(data))
        return journal
