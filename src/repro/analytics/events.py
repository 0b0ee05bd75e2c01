"""The analytics event row: one immutable record in the availability store.

Where a :class:`~repro.obs.journal.JournalRecord` narrates a protocol
moment for an operator, an :class:`AnalyticsEvent` is the *persisted*
form of that moment: sequence-numbered by the store that holds it, with
the columns availability queries group by (``entity``, ``broker``) and an
optional numeric ``value`` (a latency, a recovery time) promoted out of
the free-form ``fields`` so queries filter and aggregate without looking
inside them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.util.serialization import Fields


@dataclass(frozen=True, slots=True)
class AnalyticsEvent:
    """One stored analytics event; ``seq`` is its 1-based position in the store."""

    seq: int
    time_ms: float
    kind: str
    entity: str | None = None
    broker: str | None = None
    value: float | None = None
    fields: Mapping[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready row form; :meth:`from_dict` round-trips it."""
        out: dict = {"seq": self.seq, "time_ms": self.time_ms, "kind": self.kind}
        if self.entity is not None:
            out["entity"] = self.entity
        if self.broker is not None:
            out["broker"] = self.broker
        if self.value is not None:
            out["value"] = self.value
        if self.fields:
            out["fields"] = dict(self.fields)
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "AnalyticsEvent":
        """Rebuild an event from its :meth:`to_dict` form."""
        fields = Fields(data, cls)
        return cls(
            seq=fields.integer("seq"),
            time_ms=fields.number("time_ms"),
            kind=fields.text("kind"),
            entity=fields.text("entity", None),
            broker=fields.text("broker", None),
            value=fields.number("value", None),
            fields=dict(fields.mapping("fields", {})),
        )
