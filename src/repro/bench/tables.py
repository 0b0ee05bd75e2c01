"""Paper-vs-measured table rendering for benchmark output, and the checks
that refuse a result whose shape the paper contradicts."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PaperShapeError
from repro.util.stats import StatSummary


@dataclass(frozen=True, slots=True)
class ComparisonRow:
    """One table row comparing the paper's value with ours."""

    label: str
    paper_mean: float | None
    paper_std: float | None
    measured: StatSummary

    @property
    def delta_mean(self) -> float | None:
        """Measured-minus-paper mean, or None without a paper value."""
        if self.paper_mean is None:
            return None
        return self.measured.mean - self.paper_mean


def render_comparison(title: str, rows: list[ComparisonRow]) -> str:
    """A fixed-width paper-vs-measured table."""
    lines = [
        title,
        "=" * len(title),
        f"{'Case':<34s} {'paper mean':>11s} {'paper sd':>9s} "
        f"{'ours mean':>10s} {'ours sd':>8s} {'ours se':>8s} {'delta':>8s}",
        "-" * 93,
    ]
    for row in rows:
        paper_mean = f"{row.paper_mean:.2f}" if row.paper_mean is not None else "-"
        paper_std = f"{row.paper_std:.2f}" if row.paper_std is not None else "-"
        delta = f"{row.delta_mean:+.2f}" if row.delta_mean is not None else "-"
        lines.append(
            f"{row.label:<34s} {paper_mean:>11s} {paper_std:>9s} "
            f"{row.measured.mean:>10.2f} {row.measured.std_dev:>8.2f} "
            f"{row.measured.std_error:>8.2f} {delta:>8s}"
        )
    return "\n".join(lines)


def render_series(title: str, xlabel: str, series: dict[str, list[tuple[float, float]]]) -> str:
    """Figure-style output: one column per named series of (x, y) points."""
    xs = sorted({x for points in series.values() for x, _ in points})
    names = sorted(series)
    lines = [
        title,
        "=" * len(title),
        f"{xlabel:>10s} " + " ".join(f"{name:>16s}" for name in names),
        "-" * (11 + 17 * len(names)),
    ]
    lookup = {
        name: {x: y for x, y in points} for name, points in series.items()
    }
    for x in xs:
        cells = []
        for name in names:
            y = lookup[name].get(x)
            cells.append(f"{y:>16.2f}" if y is not None else f"{'-':>16s}")
        lines.append(f"{x:>10.0f} " + " ".join(cells))
    return "\n".join(lines)


def require(holds: bool, message: str) -> None:
    """Raise :class:`PaperShapeError` with ``message`` unless ``holds``."""
    if not holds:
        raise PaperShapeError(message)


def require_within_paper(rows: list[ComparisonRow], rel: float) -> None:
    """Every row's measured mean lies within ``rel`` of the paper's mean."""
    for row in rows:
        require(
            abs(row.measured.mean - row.paper_mean) <= rel * abs(row.paper_mean),
            f"{row.label}: ours {row.measured.mean:.2f} ms is not within "
            f"{rel:.0%} of the paper's {row.paper_mean:.2f} ms",
        )
