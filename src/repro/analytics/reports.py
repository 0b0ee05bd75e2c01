"""SLO-style report queries over the availability analytics store.

:func:`build_report` turns a store into one JSON-serializable report
dict — uptime %, outage counts and durations per entity, an outage
histogram, MTTR percentiles from persisted ``recovery.completed``
evidence (the ``trace.recovery_ms`` values), per-broker fault exposure,
and the evidence-kind inventory the audit gate checks.  The renderers
(:func:`render_report_markdown`, :func:`render_report_json`) are pure
functions of that dict, following the campaign report's rule: generated
artifacts are regenerable byte-for-byte from the committed snapshot, so
CI's seed step (``repro seeds``, ``git diff``) fails on any drift.
"""

from __future__ import annotations

import json

from repro.analytics.availability import TRACE_OBSERVED, build_timelines
from repro.analytics.store import AnalyticsStore

#: Outage-duration histogram bucket upper bounds (last bucket is overflow).
OUTAGE_BOUNDS_MS = (100.0, 500.0, 1_000.0, 5_000.0, 15_000.0, 60_000.0)

#: Journal kinds that count as fault exposure for a broker.
_BROKER_FAULT_KINDS = ("fault.injected", "fault.reverted")
#: The one fault kind whose target is an entity; every other targets a broker.
_ENTITY_FAULT = "entity_crash"


def _percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile over a non-empty sorted value list."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


def _round(value: float | None, digits: int = 3) -> float | None:
    """Stable rounding (reports are diffed byte-for-byte in CI)."""
    return None if value is None else round(value, digits)


def build_report(store: AnalyticsStore, now_ms: float | None = None) -> dict:
    """One report dict answering the SLO questions over ``store``.

    ``now_ms`` closes open availability intervals; it defaults to the
    store's ``meta["now_ms"]`` and falls back to the latest event time,
    so a report over a snapshot file needs no live clock.
    """
    events = store.events()
    if now_ms is None:
        now_ms = store.meta.get("now_ms")
    if now_ms is None:
        now_ms = max((e.time_ms for e in events), default=0.0)
    now_ms = float(now_ms)

    timelines = build_timelines(e for e in events if e.kind == TRACE_OBSERVED)

    entities: dict[str, dict] = {}
    all_outages: list[float] = []
    for entity_id in sorted(timelines):
        timeline = timelines[entity_id]
        outages = timeline.outage_durations_ms()
        all_outages.extend(outages)
        entities[entity_id] = {
            "state": "up" if timeline.up else "down",
            "availability_pct": _round(100.0 * timeline.availability(now_ms)),
            "uptime_ms": _round(timeline.uptime_ms(now_ms)),
            "outages": timeline.down_count,
            "mttr_ms": _round(timeline.mean_time_to_recover_ms()),
            "suspect": timeline.suspect_since_ms is not None,
        }

    counts = [0] * (len(OUTAGE_BOUNDS_MS) + 1)
    for duration in all_outages:
        for position, bound in enumerate(OUTAGE_BOUNDS_MS):
            if duration < bound:
                counts[position] += 1
                break
        else:
            counts[-1] += 1
    outage_histogram = {
        "bounds_ms": list(OUTAGE_BOUNDS_MS),
        "counts": counts,
        "total": len(all_outages),
    }

    # MTTR percentiles prefer the journal's recovery evidence (the
    # detection -> re-registration windows of trace.recovery_ms); the
    # interval gaps are the fallback when no probe ran.
    recovery_values = [
        e.value for e in store.events(kind="recovery.completed") if e.value is not None
    ]
    mttr_source = "recovery.completed" if recovery_values else "intervals"
    values = recovery_values if recovery_values else all_outages
    mttr = {"count": len(values), "source": mttr_source}
    if values:
        mttr.update(
            mean_ms=_round(sum(values) / len(values)),
            p50_ms=_round(_percentile(values, 0.50)),
            p90_ms=_round(_percentile(values, 0.90)),
            p99_ms=_round(_percentile(values, 0.99)),
        )

    brokers: dict[str, dict] = {}

    def _broker_entry(name: str) -> dict:
        return brokers.setdefault(
            name, {"faults_injected": 0, "faults_reverted": 0,
                   "failovers_out": 0, "failovers_in": 0, "sessions_created": 0}
        )

    for event in events:
        if event.kind in _BROKER_FAULT_KINDS:
            target = event.fields.get("target")
            if isinstance(target, str) and event.fields.get("fault") != _ENTITY_FAULT:
                entry = _broker_entry(target)
                key = (
                    "faults_injected"
                    if event.kind == "fault.injected"
                    else "faults_reverted"
                )
                entry[key] += 1
        elif event.kind == "fault.failover":
            source = event.fields.get("from_broker")
            destination = event.fields.get("to_broker")
            if isinstance(source, str):
                _broker_entry(source)["failovers_out"] += 1
            if isinstance(destination, str):
                _broker_entry(destination)["failovers_in"] += 1
        elif event.kind == "session.created" and event.broker is not None:
            _broker_entry(event.broker)["sessions_created"] += 1

    return {
        "meta": dict(store.meta),
        "now_ms": now_ms,
        "entities": entities,
        "outage_histogram": outage_histogram,
        "mttr": mttr,
        "brokers": {name: brokers[name] for name in sorted(brokers)},
        "evidence": store.kinds(),
    }


# ------------------------------------------------------------------ rendering


def format_cell(value) -> str:
    """Markdown table-cell formatting: em-dash for missing, ``%g`` floats."""
    if value is None:
        return "—"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


_ENTITY_COLUMNS = (
    ("state", "state"),
    ("uptime %", "availability_pct"),
    ("outages", "outages"),
    ("MTTR (ms)", "mttr_ms"),
)
_BROKER_COLUMNS = (
    ("faults", "faults_injected"),
    ("reverted", "faults_reverted"),
    ("failovers out", "failovers_out"),
    ("failovers in", "failovers_in"),
    ("sessions", "sessions_created"),
)


def render_report_markdown(report: dict) -> str:
    """Markdown rendering (the committed ``report.md`` artifact form)."""
    meta = report.get("meta", {})
    lines = ["# Availability report", ""]
    descriptors = [f"`now_ms` {report['now_ms']:g}"]
    if meta.get("scenario"):
        descriptors.insert(0, f"scenario `{meta['scenario']}`")
    if meta.get("seed") is not None:
        descriptors.append(f"seed `{meta['seed']}`")
    if meta.get("duration_ms") is not None:
        descriptors.append(f"duration `{meta['duration_ms']:g}` ms")
    lines += ["- " + " · ".join(descriptors), ""]

    lines.append("## Entities")
    lines.append("")
    lines.append("| entity | " + " | ".join(n for n, _ in _ENTITY_COLUMNS) + " |")
    lines.append("|---" * (len(_ENTITY_COLUMNS) + 1) + "|")
    for entity_id, row in report["entities"].items():
        cells = " | ".join(format_cell(row[key]) for _, key in _ENTITY_COLUMNS)
        lines.append(f"| {entity_id} | {cells} |")
    lines.append("")

    mttr = report["mttr"]
    lines.append("## MTTR")
    lines.append("")
    if mttr["count"]:
        lines.append(
            f"{mttr['count']} completed recover(ies) from `{mttr['source']}`: "
            f"mean {format_cell(mttr['mean_ms'])} ms, p50 {format_cell(mttr['p50_ms'])} ms, "
            f"p90 {format_cell(mttr['p90_ms'])} ms, p99 {format_cell(mttr['p99_ms'])} ms."
        )
    else:
        lines.append("No completed recoveries in this run.")
    lines.append("")

    histogram = report["outage_histogram"]
    lines.append("## Outage histogram")
    lines.append("")
    if histogram["total"]:
        lines.append("| bucket (ms) | outages |")
        lines.append("|---|---|")
        lower = 0.0
        for bound, count in zip(
            histogram["bounds_ms"], histogram["counts"], strict=False
        ):
            lines.append(f"| [{lower:g}, {bound:g}) | {count} |")
            lower = bound
        lines.append(f"| [{lower:g}, inf) | {histogram['counts'][-1]} |")
    else:
        lines.append("No completed outages in this run.")
    lines.append("")

    if report["brokers"]:
        lines.append("## Brokers")
        lines.append("")
        lines.append(
            "| broker | " + " | ".join(n for n, _ in _BROKER_COLUMNS) + " |"
        )
        lines.append("|---" * (len(_BROKER_COLUMNS) + 1) + "|")
        for broker_id, row in report["brokers"].items():
            cells = " | ".join(format_cell(row[key]) for _, key in _BROKER_COLUMNS)
            lines.append(f"| {broker_id} | {cells} |")
        lines.append("")

    lines.append("## Evidence inventory")
    lines.append("")
    lines.append("| journal kind | events |")
    lines.append("|---|---|")
    for kind, count in sorted(report["evidence"].items()):
        lines.append(f"| `{kind}` | {count} |")

    lines += [
        "",
        "---",
        "",
        "*Generated by `repro analytics report` — do not edit by hand.*",
        "*Regenerate with:*",
        "",
        "```sh",
        "PYTHONPATH=src python -m repro analytics report "
        "--snapshot benchmarks/results/analytics/analytics_seed.json "
        "--format markdown --out benchmarks/results/analytics/report.md",
        "```",
    ]
    return "\n".join(lines)


def render_report_json(report: dict) -> str:
    """Deterministic JSON rendering of the report dict."""
    return json.dumps(report, indent=2, sort_keys=True)
