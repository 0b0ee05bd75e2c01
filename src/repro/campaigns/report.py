"""Campaign report generation: markdown tables + SVG figures.

:func:`generate_report` turns a campaign snapshot (the JSON
:func:`~repro.campaigns.runner.run_campaign` produces) into the
artifact set committed under ``benchmarks/results/campaigns/<name>/``:

* ``report.md`` — one grid table per family, a dependability summary
  (MTTR percentiles + availability envelopes from ``trace.recovery_ms``),
  an adversarial-defense table for the §5 families, and a baseline
  comparison grid keyed on the shared ``entities`` axis;
* ``fig_availability.svg`` / ``fig_baselines.svg`` — :mod:`svgplot`
  figures (deterministic, dependency-free SVG).

The report is *generated*, never hand-edited: CI re-renders the smoke
campaign's (``repro seeds``) and fails on any diff, the same drift-checking
treatment EXPERIMENTS.md footers get from the ``DOC03`` analysis rule.
"""

from __future__ import annotations

import pathlib

from repro.analytics.reports import format_cell
from repro.bench.svgplot import Series, line_chart

#: Columns shown per family kind, as (header, dotted metrics path) pairs.
_PROTOCOL_COLUMNS = (
    ("delivered", "metrics.counters.broker.msgs.delivered"),
    ("pings", "metrics.counters.tracker.pings.sent"),
    ("recoveries", "metrics.counters.trace.recovery.completed"),
    ("MTTR p50 (ms)", "metrics.recovery.p50_ms"),
    ("MTTR p99 (ms)", "metrics.recovery.p99_ms"),
    ("availability %", "metrics.availability.availability_pct"),
)
_ADVERSARIAL_COLUMNS = (
    ("attempts", "metrics.attack.attempts"),
    ("replays", "metrics.attack.replays"),
    ("rejected", "metrics.counters.broker.msgs.rejected"),
    ("violations", "metrics.counters.broker.violations"),
    ("terminated", "metrics.defense.terminated"),
    ("forged FAILED seen", "metrics.forged_failed_seen"),
    ("recoveries", "metrics.counters.trace.recovery.completed"),
)
_BASELINE_COLUMNS = (
    ("population", "metrics.population"),
    ("msgs/s", "metrics.msgs_per_s"),
    ("detect first (ms)", "metrics.detect_first_ms"),
    ("detect last (ms)", "metrics.detect_last_ms"),
)


def _lookup(record: dict, dotted: str):
    """Resolve a dotted path against a nested dict, or ``None``.

    Counter names themselves contain dots, so after descending into the
    ``counters`` mapping the remaining path is looked up as one key.
    """
    node = record
    parts = dotted.split(".")
    for position, part in enumerate(parts):
        if not isinstance(node, dict):
            return None
        if part == "counters":
            return node.get("counters", {}).get(".".join(parts[position + 1 :]))
        node = node.get(part)
    return node


def _param_columns(records: list[dict]) -> list[str]:
    """The union of parameter names across records, sorted."""
    names: set[str] = set()
    for record in records:
        names.update(record.get("params", {}))
    return sorted(names)


def _family_table(records: list[dict], columns) -> list[str]:
    """One markdown grid table: param columns then metric columns."""
    params = _param_columns(records)
    used = [
        (header, path)
        for header, path in columns
        if any(_lookup(r, path) is not None for r in records)
    ]
    header = params + ["seed"] + [header for header, _ in used]
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "|".join("---" for _ in header) + "|",
    ]
    for record in records:
        cells = [format_cell(record.get("params", {}).get(p)) for p in params]
        cells.append(str(record.get("seed")))
        cells += [format_cell(_lookup(record, path)) for _, path in used]
        lines.append("| " + " | ".join(cells) + " |")
    return lines


def _columns_for(kind_of_family: str):
    """The column set for a family kind."""
    if kind_of_family == "baseline":
        return _BASELINE_COLUMNS
    return _PROTOCOL_COLUMNS


def _dependability_section(records: list[dict]) -> list[str]:
    """MTTR percentile + availability-envelope summary across points."""
    rows = [
        record
        for record in records
        if _lookup(record, "metrics.recovery.count")
    ]
    if not rows:
        return []
    lines = [
        "## Dependability summary",
        "",
        "MTTR percentiles and availability envelopes from the",
        "`trace.recovery_ms` probes (detection → re-registration), per",
        "point with at least one completed recovery:",
        "",
        "| family | params | MTTR mean | p50 | p90 | p99 | availability % | unrecovered |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for record in rows:
        params = ", ".join(
            f"{k}={v}" for k, v in sorted(record.get("params", {}).items())
        )
        lines.append(
            "| {family} | {params} | {mean} | {p50} | {p90} | {p99} "
            "| {avail} | {unrec} |".format(
                family=record["family"],
                params=params or "—",
                mean=format_cell(_lookup(record, "metrics.recovery.mean_ms")),
                p50=format_cell(_lookup(record, "metrics.recovery.p50_ms")),
                p90=format_cell(_lookup(record, "metrics.recovery.p90_ms")),
                p99=format_cell(_lookup(record, "metrics.recovery.p99_ms")),
                avail=format_cell(
                    _lookup(record, "metrics.availability.availability_pct")
                ),
                unrec=format_cell(_lookup(record, "metrics.availability.unrecovered")),
            )
        )
    lines.append("")
    return lines


def _baseline_comparison(snapshot: dict) -> list[str]:
    """Tracing vs baseline grid keyed on the shared ``entities`` axis."""
    by_family: dict[str, list[dict]] = {}
    for record in snapshot.get("results", []):
        by_family.setdefault(record["family"], []).append(record)
    baselines = {
        name: records
        for name, records in by_family.items()
        if records and records[0]["kind"] == "baseline"
    }
    tracing = [
        record
        for name, records in by_family.items()
        if records and records[0]["kind"] == "workload"
        for record in records
        if _lookup(record, "metrics.detection.count")
    ]
    if not baselines:
        return []
    lines = [
        "## Baseline comparison",
        "",
        "The same grid run through the §1/§7 baselines.  Tracing rows",
        "report FAILED-verdict latency (`tracker.detection.latency_ms`);",
        "baseline rows report crash-to-suspicion time at each member.",
        "",
        "| system | entities | detect mean/first (ms) | detect max/last (ms) | msgs/s |",
        "|---|---|---|---|---|",
    ]
    for record in tracing:
        lines.append(
            "| tracing ({family}) | {entities} | {mean} | {max} | — |".format(
                family=record["family"],
                entities=format_cell(record.get("params", {}).get("entities")),
                mean=format_cell(_lookup(record, "metrics.detection.mean_ms")),
                max=format_cell(_lookup(record, "metrics.detection.max_ms")),
            )
        )
    for name in sorted(baselines):
        for record in baselines[name]:
            lines.append(
                "| {name} | {entities} | {first} | {last} | {rate} |".format(
                    name=name,
                    entities=format_cell(record.get("params", {}).get("entities")),
                    first=format_cell(_lookup(record, "metrics.detect_first_ms")),
                    last=format_cell(_lookup(record, "metrics.detect_last_ms")),
                    rate=format_cell(_lookup(record, "metrics.msgs_per_s")),
                )
            )
    lines.append("")
    return lines


def _availability_figure(records: list[dict]) -> str | None:
    """Availability vs entities, one line per (family, churn cell)."""
    series: dict[str, list[tuple[float, float]]] = {}
    for record in records:
        availability = _lookup(record, "metrics.availability.availability_pct")
        entities = record.get("params", {}).get("entities")
        if availability is None or entities is None:
            continue
        extra = {
            k: v
            for k, v in sorted(record.get("params", {}).items())
            if k not in ("entities",)
        }
        label = record["family"]
        if extra:
            label += " " + ",".join(f"{k}={v}" for k, v in extra.items())
        series.setdefault(label, []).append((float(entities), float(availability)))
    series = {k: v for k, v in series.items() if len(v) >= 2}
    if not series:
        return None
    return line_chart(
        "Availability envelope vs entity count",
        "entities",
        "availability %",
        [Series(name, tuple(sorted(points))) for name, points in sorted(series.items())],
    )


def _baseline_figure(snapshot: dict) -> str | None:
    """Detection-time-vs-entities comparison figure."""
    series: dict[str, list[tuple[float, float]]] = {}
    for record in snapshot.get("results", []):
        entities = record.get("params", {}).get("entities")
        if entities is None:
            continue
        if record["kind"] == "baseline":
            value = _lookup(record, "metrics.detect_last_ms")
            label = record["family"]
        else:
            value = _lookup(record, "metrics.detection.mean_ms")
            label = f"tracing ({record['family']})"
        if value is None:
            continue
        series.setdefault(label, []).append((float(entities), float(value)))
    series = {k: v for k, v in series.items() if len(v) >= 2}
    if not series:
        return None
    return line_chart(
        "Failure detection time vs entity count",
        "entities",
        "detection time (ms)",
        [Series(name, tuple(sorted(points))) for name, points in sorted(series.items())],
    )


def generate_report(
    snapshot: dict, out_dir: str | pathlib.Path, regenerate: tuple[str, str]
) -> list[pathlib.Path]:
    """Render ``report.md`` and figures for a campaign snapshot.

    ``regenerate`` is ``(what, command)`` for the footer: "*Regenerate
    {what} with:*" over the shell ``command`` that rewrites these files.
    Returns the list of files written.  Output is a pure function of
    the snapshot and ``regenerate``, so regenerating from the committed
    snapshot must be a no-op diff (the ``campaign`` row of
    :mod:`repro.seeds` enforces this).
    """
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[pathlib.Path] = []

    by_family: dict[str, list[dict]] = {}
    for record in snapshot.get("results", []):
        by_family.setdefault(record["family"], []).append(record)

    spec = snapshot.get("spec", {})
    lines = [
        f"# Campaign report: {snapshot.get('campaign', '?')}",
        "",
    ]
    if snapshot.get("description"):
        lines += [snapshot["description"], ""]
    axes = spec.get("axes", [])
    lines += [
        f"- seed: `{snapshot.get('seed')}`"
        f" · repetitions: {spec.get('repetitions', 1)}"
        f" · points: {snapshot.get('point_count', 0)}",
        "- axes: "
        + (
            ", ".join(
                "`{name}` ∈ {values}".format(
                    name=axis["name"], values=axis["values"]
                )
                for axis in axes
            )
            if axes
            else "(none)"
        ),
        "- fixed: "
        + (
            ", ".join(
                f"`{k}`={v}" for k, v in sorted(spec.get("fixed", {}).items())
            )
            or "(none)"
        ),
        "",
    ]

    for family_name, records in by_family.items():
        kind = records[0]["kind"]
        family_kind = snapshot.get("families", {}).get(family_name, {}).get(
            "kind", kind
        )
        lines.append(f"## {family_name}")
        lines.append("")
        columns = (
            _ADVERSARIAL_COLUMNS
            if any(_lookup(r, "metrics.attack.attempts") is not None for r in records)
            else _columns_for(family_kind)
        )
        lines += _family_table(records, columns)
        swept = {axis["name"] for axis in axes}
        accepted = _param_columns(records)
        ignored = sorted(swept - set(accepted))
        if ignored:
            lines.append("")
            lines.append(
                "_Axes not applicable to this family (projected away): "
                + ", ".join(f"`{name}`" for name in ignored)
                + "._"
            )
        lines.append("")

    lines += _dependability_section(snapshot.get("results", []))
    lines += _baseline_comparison(snapshot)

    figures = []
    availability_svg = _availability_figure(snapshot.get("results", []))
    if availability_svg is not None:
        path = out / "fig_availability.svg"
        path.write_text(availability_svg, encoding="utf-8")
        written.append(path)
        figures.append(("Availability envelope", path.name))
    baseline_svg = _baseline_figure(snapshot)
    if baseline_svg is not None:
        path = out / "fig_baselines.svg"
        path.write_text(baseline_svg, encoding="utf-8")
        written.append(path)
        figures.append(("Baseline detection comparison", path.name))
    if figures:
        lines.append("## Figures")
        lines.append("")
        for title, name in figures:
            lines.append(f"- [{title}]({name})")
        lines.append("")

    lines += [
        "---",
        "",
        "*Generated by `repro campaign report` — do not edit by hand.*",
        f"*Regenerate {regenerate[0]} with:*",
        "",
        "```sh",
        regenerate[1],
        "```",
    ]

    report = out / "report.md"
    report.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written.insert(0, report)
    return written
