"""Text tables for one result file, and the comparison of two."""

from __future__ import annotations

import layers
import spans


def _number(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.4g}" if abs(value) < 1000 else f"{value:.1f}"


def end_to_end_table(result: dict) -> str:
    """One row per workload × end-to-end metric: the value and the raw passes."""
    lines = [
        f"{'workload':<14}{'metric':<18}{'value':>12} {'unit':<5} passes",
    ]
    for name, workload in result["workloads"].items():
        if "end_to_end" not in workload:
            continue
        for metric, entry in workload["end_to_end"].items():
            passes = "  ".join(_number(v) for v in entry["passes"])
            lines.append(
                f"{name:<14}{metric:<18}{_number(entry['value']):>12} {entry['unit']:<5} {passes}"
            )
        lines.append(
            f"{name:<14}{'failed_share':<18}{_number(workload['failed_share']):>12} {'ratio':<5} "
            f"{workload['failed']}/{workload['attempted']} operations; "
            f"n = {workload['slices']} slices x {len(workload['passes'])} passes; "
            f"sim_digest {workload['sim_digest'][:16]}"
        )
    return "\n".join(lines)


def layer_table(result: dict) -> str:
    """Per workload: layers by share of the traced window, then the extras."""
    blocks = []
    for name, workload in result["workloads"].items():
        values = workload.get("per_layer")
        if values is None:
            continue
        lines = [
            f"{name}: traced window {_number(workload['traced']['run_s'])} s over "
            f"{workload['traced']['slices']} slices, spans in {workload['traced']['spans_file']}",
            f"  {'layer':<22}{'self_s':>10}{'share':>8}{'calls':>10}",
        ]
        for layer in sorted(spans.LAYERS, key=lambda layer: -values[f"{layer}.share"]):
            lines.append(
                f"  {layer:<22}{values[f'{layer}.self_s']:>10.4f}"
                f"{values[f'{layer}.share']:>8.3f}{values[f'{layer}.calls']:>10d}"
            )
        lines.append(
            f"  {'(no wrapped layer)':<22}{'':>10}{values['bench.unattributed_share']:>8.3f}"
        )
        for metric in layers.EXTRAS:
            lines.append(f"  {metric.name:<44}{_number(values[metric.name]):>14} {metric.unit}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def _verdict(better: str, bound: float, a: list[float], b: list[float], med_a: float, med_b: float) -> str:
    """same / worse / better / unresolved, by the rule in README.md."""
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (med_b - med_a) / med_a  # > 0: B is worse
    spread = (max(a) - min(a)) / med_a
    if spread > bound:
        # A's own passes disagree by more than the bound: only a clean
        # separation of every run counts
        if all(sign * y < sign * x for x in a for y in b):
            return "better"
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare(a: dict, b: dict, bounds: dict[str, float]) -> tuple[str, bool]:
    """Rows for every workload × end-to-end metric; True when B is acceptable.

    ``bounds`` comes from ``BENCHMARK.json``.  B is unacceptable on any
    ``worse``, on a higher ``failed_share``, or on a changed ``sim_digest``
    (the two files then did not simulate the same thing).
    """
    for key in ("seed", "seconds", "smoke"):
        if a[key] != b[key]:
            raise ValueError(f"results are not comparable: {key} is {a[key]!r} vs {b[key]!r}")
    lines = [
        f"{'workload':<14}{'metric':<18}{'A':>12}{'B':>12}  {'B/A (base A)':<14}{'bound':>6}  verdict"
    ]
    acceptable = True
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None or "end_to_end" not in wa or "end_to_end" not in wb:
            continue
        for metric in layers.END_TO_END:
            ea, eb = wa["end_to_end"][metric.name], wb["end_to_end"][metric.name]
            bound = bounds[metric.name]
            verdict = _verdict(
                metric.better, bound, ea["passes"], eb["passes"], ea["value"], eb["value"]
            )
            acceptable &= verdict != "worse"
            lines.append(
                f"{name:<14}{metric.name:<18}{_number(ea['value']):>12}{_number(eb['value']):>12}"
                f"  {eb['value'] / ea['value']:<14.3f}{bound:>6.0%}  {verdict}"
            )
        fa, fb = wa["failed_share"], wb["failed_share"]
        verdict = "same" if fb == fa else ("worse" if fb > fa else "better")
        acceptable &= verdict != "worse"
        lines.append(
            f"{name:<14}{'failed_share':<18}{_number(fa):>12}{_number(fb):>12}  {'':<14}{'0%':>6}  {verdict}"
        )
        same = wa["sim_digest"] == wb["sim_digest"]
        acceptable &= same
        lines.append(
            f"{name:<14}{'sim_digest':<18}{wa['sim_digest'][:10]:>12}{wb['sim_digest'][:10]:>12}"
            f"  {'':<14}{'exact':>6}  {'same' if same else 'differs'}"
        )
    return "\n".join(lines), acceptable
