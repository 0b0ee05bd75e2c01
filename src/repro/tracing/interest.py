"""Interest gauging (section 3.5).

"Traces are issued by a broker only if there are entities that are
interested in receiving traces corresponding to a traced entity."  The
broker publishes GUAGE_INTEREST; trackers respond with any combination of
change notifications, all-updates, state transitions, load information or
network metrics.  The registry below records those responses with a TTL so
a tracker that disappears stops costing trace publications.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.crypto.certificates import Certificate
from repro.errors import InterestError
from repro.util.serialization import Fields, wire_record


class InterestCategory(enum.Enum):
    """The five selectable trace streams of section 3.5."""

    CHANGE_NOTIFICATIONS = "change_notifications"
    ALL_UPDATES = "all_updates"
    STATE_TRANSITIONS = "state_transitions"
    LOAD = "load"
    NETWORK_METRICS = "network_metrics"

    @classmethod
    def parse_many(cls, names: list[str]) -> frozenset["InterestCategory"]:
        try:
            return frozenset(cls(name) for name in names)
        except ValueError as exc:
            raise InterestError(f"unknown interest category: {exc}") from exc


ALL_CATEGORIES = frozenset(InterestCategory)


@wire_record()
class InterestResponse:
    """A tracker's answer to GUAGE_INTEREST, signed under the key of the
    CA ``certificate`` it carries: interest is recorded, and a secured
    session's trace key sealed, for that certificate's subject.  No
    ``categories`` retracts the subject's interest."""

    categories: tuple[str, ...]
    certificate: Certificate
    stamp_ms: float

    @classmethod
    def signer(cls, body: Any) -> Certificate:
        """The certificate ``body`` claims to be signed under: checked
        against the CA and the signature before the rest is trusted."""
        return Certificate.from_dict(Fields(body, cls).value("certificate"))


@dataclass(slots=True)
class _TrackerInterest:
    certificate: Certificate
    categories: frozenset[InterestCategory]
    expires_ms: float


@dataclass(slots=True)
class InterestRegistry:
    """Per-entity record of which certified trackers want which trace
    streams; it outlives the entity's sessions on one broker."""

    ttl_ms: float = 120_000.0
    _trackers: dict[str, _TrackerInterest] = field(default_factory=dict)

    def record(
        self,
        certificate: Certificate,
        categories: frozenset[InterestCategory],
        now_ms: float,
    ) -> None:
        """Record (or refresh) the interest of ``certificate``'s subject."""
        if not categories:
            # an empty response is a retraction
            self._trackers.pop(certificate.subject, None)
            return
        self._trackers[certificate.subject] = _TrackerInterest(
            certificate=certificate, categories=categories, expires_ms=now_ms + self.ttl_ms
        )

    def _reap(self, now_ms: float) -> None:
        expired = [t for t, i in self._trackers.items() if i.expires_ms < now_ms]
        for tracker in expired:
            del self._trackers[tracker]

    def interested_in(self, category: InterestCategory, now_ms: float) -> bool:
        """Is anyone currently interested in ``category``?"""
        self._reap(now_ms)
        return any(category in i.categories for i in self._trackers.values())

    def certificates(self, now_ms: float) -> list[Certificate]:
        """The certificates of every tracker whose interest is still live."""
        self._reap(now_ms)
        return [i.certificate for i in self._trackers.values()]

    def __len__(self) -> int:
        return len(self._trackers)
