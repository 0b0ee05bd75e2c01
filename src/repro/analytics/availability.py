"""Availability timelines: the interval algebra behind the SLO report.

This module is the single home of the up/down semantics the paper's
trace types imply: an entity is **up** from JOIN (or first READY) until
FAILED, DISCONNECT, SHUTDOWN or REVERTING_TO_SILENT_MODE;
FAILURE_SUSPICION marks it *suspect* but not yet down; RECOVERING counts
as up.  A later JOIN/READY after a down-marker opens a new interval.

Timelines are built from persisted ``trace.observed`` analytics events
(:func:`build_timelines`), so the SLO report, the CLI and any library
caller derive identical numbers from the same stored log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.analytics.events import AnalyticsEvent

#: Store event kind for one verified trace observation.
TRACE_OBSERVED = "trace.observed"

#: Trace-type values that open an availability interval.
UP_MARKERS = frozenset({"JOIN", "READY", "RECOVERING", "ALLS_WELL"})
#: Trace-type values that close one.
DOWN_MARKERS = frozenset(
    {"FAILED", "DISCONNECT", "SHUTDOWN", "REVERTING_TO_SILENT_MODE"}
)
#: The suspect-but-not-down marker.
SUSPECT_MARKER = "FAILURE_SUSPICION"


@dataclass(frozen=True, slots=True)
class Interval:
    """One closed-or-open availability interval."""

    start_ms: float
    end_ms: float | None  # None while still up

    def duration_ms(self, now_ms: float) -> float:
        """Length of the interval, clamping an open end to ``now_ms``."""
        end = self.end_ms if self.end_ms is not None else now_ms
        return max(0.0, end - self.start_ms)

    def contains(self, t_ms: float, now_ms: float) -> bool:
        """Whether ``t_ms`` falls inside the (possibly open) interval."""
        end = self.end_ms if self.end_ms is not None else now_ms
        return self.start_ms <= t_ms < end


@dataclass(slots=True)
class EntityTimeline:
    """Availability state and history for one entity."""

    entity_id: str
    intervals: list[Interval] = field(default_factory=list)
    suspect_since_ms: float | None = None
    last_trace_ms: float | None = None
    down_count: int = 0

    @property
    def up(self) -> bool:
        """Whether the most recent interval is still open."""
        return bool(self.intervals) and self.intervals[-1].end_ms is None

    def _open(self, t_ms: float) -> None:
        if not self.up:
            self.intervals.append(Interval(start_ms=t_ms, end_ms=None))

    def _close(self, t_ms: float) -> None:
        if self.up:
            last = self.intervals[-1]
            self.intervals[-1] = Interval(last.start_ms, t_ms)
            self.down_count += 1

    def apply(self, trace_type_value: str, t_ms: float) -> None:
        """Advance the timeline with one trace-type marker at ``t_ms``."""
        self.last_trace_ms = t_ms
        if trace_type_value in UP_MARKERS:
            self._open(t_ms)
            self.suspect_since_ms = None
        elif trace_type_value == SUSPECT_MARKER:
            if self.suspect_since_ms is None:
                self.suspect_since_ms = t_ms
        elif trace_type_value in DOWN_MARKERS:
            self._close(t_ms)
            self.suspect_since_ms = None

    # ------------------------------------------------------------- statistics

    def uptime_ms(self, now_ms: float) -> float:
        """Total up time across all intervals (open end clamps to now)."""
        return sum(i.duration_ms(now_ms) for i in self.intervals)

    def availability(self, now_ms: float) -> float:
        """Fraction of time up since first observed, in [0, 1]."""
        if not self.intervals:
            return 0.0
        observed = now_ms - self.intervals[0].start_ms
        if observed <= 0:
            return 1.0 if self.up else 0.0
        return min(1.0, self.uptime_ms(now_ms) / observed)

    def was_up_at(self, t_ms: float, now_ms: float) -> bool:
        """Whether any interval covered ``t_ms``."""
        return any(i.contains(t_ms, now_ms) for i in self.intervals)

    def outage_durations_ms(self) -> list[float]:
        """Gap lengths between an interval's end and the next one's start."""
        return [
            later.start_ms - earlier.end_ms
            for earlier, later in zip(self.intervals, self.intervals[1:], strict=False)
            if earlier.end_ms is not None
        ]

    def mean_time_to_recover_ms(self) -> float | None:
        """Mean outage duration, or ``None`` with no completed outage."""
        gaps = self.outage_durations_ms()
        return sum(gaps) / len(gaps) if gaps else None


def build_timelines(events: Iterable[AnalyticsEvent]) -> dict[str, EntityTimeline]:
    """Fold ``trace.observed`` events into per-entity timelines.

    Events of other kinds and events with no entity are ignored.  Events
    are applied in (time, seq) order so the result is independent of the
    order they are passed in.
    """
    timelines: dict[str, EntityTimeline] = {}
    relevant = [
        e for e in events if e.kind == TRACE_OBSERVED and e.entity is not None
    ]
    relevant.sort(key=lambda e: (e.time_ms, e.seq))
    for event in relevant:
        timeline = timelines.get(event.entity)
        if timeline is None:
            timeline = EntityTimeline(entity_id=event.entity)
            timelines[event.entity] = timeline
        timeline.apply(str(event.fields.get("trace_type", "")), event.time_ms)
    return timelines
