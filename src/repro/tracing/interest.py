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

from repro.crypto.rsa import RSAPublicKey
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
class TrackerCredential:
    """The subject and key (``n`` / ``e``) an interest response is signed under."""

    public_key: RSAPublicKey
    subject: str = ""


@wire_record()
class InterestResponse:
    """A tracker's signed answer to GUAGE_INTEREST: no ``categories``
    retracts its interest; ``response_topic`` takes a secured session's
    trace key, sealed to ``credentials``."""

    tracker_id: str
    categories: tuple[str, ...]
    credentials: TrackerCredential
    response_topic: str | None = None
    stamp_ms: float | None = None

    @classmethod
    def signer(cls, body: Any) -> TrackerCredential:
        """The credential ``body`` claims to be signed under: read, and
        checked against its signature, before the rest of it is trusted."""
        return TrackerCredential.from_dict(Fields(body, cls).value("credentials"))


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
