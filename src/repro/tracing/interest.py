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

from repro.errors import InterestError


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


@dataclass(slots=True)
class _TrackerInterest:
    categories: frozenset[InterestCategory]
    expires_ms: float


@dataclass(slots=True)
class InterestRegistry:
    """Per-session record of which trackers want which trace streams."""

    ttl_ms: float = 120_000.0
    _trackers: dict[str, _TrackerInterest] = field(default_factory=dict)

    def record(
        self,
        tracker_id: str,
        categories: frozenset[InterestCategory],
        now_ms: float,
    ) -> None:
        """Record (or refresh) one tracker's interest response."""
        if not categories:
            # an empty response is a retraction
            self._trackers.pop(tracker_id, None)
            return
        self._trackers[tracker_id] = _TrackerInterest(
            categories=categories, expires_ms=now_ms + self.ttl_ms
        )

    def _reap(self, now_ms: float) -> None:
        expired = [t for t, i in self._trackers.items() if i.expires_ms < now_ms]
        for tracker in expired:
            del self._trackers[tracker]

    def interested_in(self, category: InterestCategory, now_ms: float) -> bool:
        """Is anyone currently interested in ``category``?"""
        self._reap(now_ms)
        return any(category in i.categories for i in self._trackers.values())

    def __len__(self) -> int:
        return len(self._trackers)
