"""Persistent, queryable availability analytics (docs/ANALYTICS.md).

The package turns one run's transient observability — the in-flight
:class:`~repro.obs.journal.EventJournal` and the trackers' verified
trace streams — into a durable, queryable record:

* :mod:`repro.analytics.store` — the append-only event log, held in
  memory, whose one on-disk form is its JSON snapshot.
* :mod:`repro.analytics.ingest` — the feeds: a tracker ``on_trace``
  adapter and a post-run journal copy.
* :mod:`repro.analytics.availability` — the up/down interval algebra
  shared by the live archive and the offline reports.
* :mod:`repro.analytics.reports` — SLO-style queries (uptime %, outage
  histograms, MTTR percentiles) rendered as text/JSON/markdown by
  ``repro analytics report``.
* :mod:`repro.analytics.audit` — the audit-completeness gate: every
  counted state mutation must have matching journal evidence.
"""

from repro.analytics.audit import (
    DEFAULT_RULES,
    AuditFinding,
    EvidenceRule,
    assert_audit_complete,
    audit_deployment,
)
from repro.analytics.availability import (
    DOWN_MARKERS,
    SUSPECT_MARKER,
    TRACE_OBSERVED,
    UP_MARKERS,
    EntityTimeline,
    Interval,
    build_timelines,
)
from repro.analytics.events import AnalyticsEvent
from repro.analytics.ingest import TraceIngestor, ingest_journal
from repro.analytics.reports import (
    build_report,
    render_report_json,
    render_report_markdown,
    render_report_text,
)
from repro.analytics.store import AnalyticsStore

__all__ = [
    "DEFAULT_RULES",
    "DOWN_MARKERS",
    "SUSPECT_MARKER",
    "TRACE_OBSERVED",
    "UP_MARKERS",
    "AnalyticsEvent",
    "AnalyticsStore",
    "AuditFinding",
    "EntityTimeline",
    "EvidenceRule",
    "Interval",
    "TraceIngestor",
    "assert_audit_complete",
    "audit_deployment",
    "build_report",
    "build_timelines",
    "ingest_journal",
    "render_report_json",
    "render_report_markdown",
    "render_report_text",
]
